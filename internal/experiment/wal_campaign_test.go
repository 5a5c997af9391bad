package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"otherworld/internal/fs"
	"otherworld/internal/metrics"
)

// diskRun runs one crash-model experiment at the given resurrection pool
// width and install mode, returning its result and the fingerprint of the
// disk it left ("" when the machine never started).
func diskRun(app string, seed int64, workers int, lazy bool) (Result, string) {
	cfg := DefaultConfig(app, seed)
	cfg.Machine.DiskCrash.Enabled = true
	cfg.Machine.Resurrection.Workers = workers
	cfg.Machine.LazyInstall = lazy
	res, m := run(cfg)
	if m == nil {
		return res, ""
	}
	return res, diskFingerprint(m.FS)
}

// diskFingerprint hashes a disk image: every file path, size and content in
// the file system's sorted order. Two runs with the same seed must produce
// identical fingerprints at any campaign or resurrection worker width.
// Contents stream through one fixed buffer rather than a copy of each
// file, so f must not change while it runs.
func diskFingerprint(f *fs.FlatFS) string {
	h := sha256.New()
	var n [8]byte
	buf := make([]byte, 32<<10)
	for _, path := range f.List() {
		size, err := f.Size(path)
		if err != nil {
			continue
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(n[:], uint64(size))
		h.Write(n[:])
		for off := int64(0); off < size; {
			k, err := f.ReadAt(path, off, buf[:min(int64(len(buf)), size-off)])
			if err != nil || k == 0 {
				break
			}
			h.Write(buf[:k])
			off += int64(k)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDiskFingerprintDeterminism is the crash model's golden-fingerprint
// gate: for pinned seeds, the post-crash disk image must be byte-identical
// at resurrection worker widths 1 and 8, under the eager and the lazy
// (demand-paged) install, and across reruns — the crash consequences are a
// pure function of the experiment seed. The width-1 eager fingerprint is
// additionally pinned against a golden so both variants drifting together
// is still caught.
func TestDiskFingerprintDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real experiments in -short mode")
	}
	type pin struct {
		app  string
		seed int64
	}
	pins := []pin{
		{"vi", 20260808},
		{"WAL", 1105},
		{"WAL-bug", 1105},
	}
	variants := []struct {
		workers int
		lazy    bool
	}{{8, false}, {1, true}, {8, true}}
	if raceEnabled {
		// One parallel+lazy variant still races every install path against
		// the crash model; the full matrix runs race-free.
		variants = variants[2:]
	}
	var b strings.Builder
	for _, p := range pins {
		base, baseFP := diskRun(p.app, p.seed, 1, false)
		if baseFP == "" {
			t.Fatalf("%s/%d: no disk to fingerprint", p.app, p.seed)
		}
		for _, v := range variants {
			got, gotFP := diskRun(p.app, p.seed, v.workers, v.lazy)
			if gotFP != baseFP {
				t.Errorf("%s/%d: disk image depends on install path (workers=%d lazy=%v):\n%s\nvs base\n%s",
					p.app, p.seed, v.workers, v.lazy, gotFP, baseFP)
			}
			if got.Outcome != base.Outcome {
				t.Errorf("%s/%d: outcome depends on install path (workers=%d lazy=%v): %v vs %v",
					p.app, p.seed, v.workers, v.lazy, got.Outcome, base.Outcome)
			}
		}
		crashed := base.DiskCrash != nil
		fmt.Fprintf(&b, "%s seed=%d outcome=%s crash=%v fingerprint=%s\n",
			p.app, p.seed, base.Outcome, crashed, baseFP)
	}
	got := b.String()

	golden := filepath.Join("testdata", "disk_fingerprint.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("disk fingerprints drifted from golden (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// checkWALRows asserts the campaign's data-survival outcome: both variants
// audited, the fixed protocol clean, the buggy one caught, and the rendered
// table carrying the "Data survived" column.
func checkWALRows(t *testing.T, rows []Table5Row) {
	t.Helper()
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %+v", rows)
	}
	fixed, buggy := rows[0], rows[1]
	if fixed.App != "WAL" || buggy.App != "WAL-bug" {
		t.Fatalf("row order drifted: %q, %q", fixed.App, buggy.App)
	}
	if fixed.DataChecked == 0 || buggy.DataChecked == 0 {
		t.Fatalf("campaign never audited the platter: %+v", rows)
	}
	if fixed.DataViolations != 0 {
		t.Errorf("fixed WAL lost data in %d of %d audits; the protocol is sound, so the model is wrong",
			fixed.DataViolations, fixed.DataChecked)
	}
	if buggy.DataViolations == 0 {
		t.Errorf("buggy WAL survived all %d audits; the campaign cannot see the missing fsync", buggy.DataChecked)
	}
	if table := RenderTable5(rows); !strings.Contains(table, "Data survived") {
		t.Errorf("rendered table lacks the data-survival column:\n%s", table)
	}
}

// runWALCampaign runs the WAL data-survival campaign: both protocol
// variants, block-layer crash model on, cold-reboot recovery (the path where
// unflushed dirty pages become orphans — the only world in which the buggy
// protocol's missing fsync can cost it data).
func runWALCampaign(width int) ([]Table5Row, *metrics.Snapshot) {
	cfg := DefaultCampaign(6, 20260808)
	cfg.Apps = []string{"WAL", "WAL-bug"}
	cfg.DiskCrash = true
	cfg.Baseline = true
	cfg.SkipProtected = true
	cfg.CampaignWorkers = width
	cfg.Metrics = metrics.NewRegistry()
	rows, _ := RunTable5Campaign(cfg)
	return rows, cfg.Metrics.Snapshot()
}

// TestWALInvariantCampaign is the PR's acceptance gate: a seeded campaign
// over the buggy WAL must report at least one recovery-invariant violation,
// deterministically — identical rows across three reruns and campaign pool
// widths 1, 4 and 8 — while the fixed WAL sails through the same crash
// schedule with zero violations.
func TestWALInvariantCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign in -short mode")
	}
	if raceEnabled {
		// One width-8 pass races the crash model and the platter audit
		// inside the campaign pool — the race detector's whole interest
		// here. The rerun/width determinism matrix (4 more full campaigns)
		// runs race-free.
		rows, _ := runWALCampaign(8)
		checkWALRows(t, rows)
		return
	}
	baseRows, baseSnap := runWALCampaign(1)
	checkWALRows(t, baseRows)

	// Replayability: identical rows and metrics across reruns...
	for rerun := 0; rerun < 2; rerun++ {
		rows, snap := runWALCampaign(1)
		if !reflect.DeepEqual(rows, baseRows) {
			t.Fatalf("rerun %d diverged:\n%+v\nvs\n%+v", rerun, rows, baseRows)
		}
		if snap.Fingerprint() != baseSnap.Fingerprint() {
			t.Fatalf("rerun %d metrics diverged:\n%s\nvs\n%s", rerun, snap.Fingerprint(), baseSnap.Fingerprint())
		}
	}
	// ...and across pool widths.
	for _, width := range []int{4, 8} {
		rows, snap := runWALCampaign(width)
		if !reflect.DeepEqual(rows, baseRows) {
			t.Fatalf("width %d diverged:\n%+v\nvs\n%+v", width, rows, baseRows)
		}
		if snap.Fingerprint() != baseSnap.Fingerprint() {
			t.Fatalf("width %d metrics diverged:\n%s\nvs\n%s", width, snap.Fingerprint(), baseSnap.Fingerprint())
		}
	}
}
