package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"otherworld/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runWidthCampaign runs the same small real campaign at one pool width and
// returns its rows plus the registry snapshot.
func runWidthCampaign(width int) ([]Table5Row, *CampaignStats, *metrics.Snapshot) {
	cfg := DefaultCampaign(2, 20260805)
	cfg.Apps = []string{"vi"}
	cfg.CampaignWorkers = width
	cfg.Metrics = metrics.NewRegistry()
	rows, stats := RunTable5Campaign(cfg)
	return rows, stats, cfg.Metrics.Snapshot()
}

// TestCampaignDeterminismAcrossWidths is the acceptance gate for the
// campaign pool: a real (not stubbed) campaign run at CampaignWorkers=1 and
// =8 must produce field-for-field identical Table 5 rows, identical failure
// attributions, an identical metrics snapshot fingerprint and the same
// experiment count — and the width-1 rendering is pinned against a golden
// so drift is caught even when both widths drift together.
func TestCampaignDeterminismAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign in -short mode")
	}
	rows1, stats1, snap1 := runWidthCampaign(1)
	rows8, stats8, snap8 := runWidthCampaign(8)

	if !reflect.DeepEqual(rows1, rows8) {
		t.Fatalf("campaign rows depend on pool width:\nwidth 1: %+v\nwidth 8: %+v", rows1, rows8)
	}
	if snap1.Fingerprint() != snap8.Fingerprint() {
		t.Fatalf("metrics snapshot depends on pool width:\n%s\nvs\n%s",
			snap1.Fingerprint(), snap8.Fingerprint())
	}
	if stats1.Experiments != stats8.Experiments {
		t.Fatalf("experiment count depends on pool width: %d vs %d", stats1.Experiments, stats8.Experiments)
	}

	var b strings.Builder
	b.WriteString(RenderTable5(rows1))
	for _, r := range TopReasons(rows1) {
		b.WriteString(r + "\n")
	}
	fmt.Fprintf(&b, "experiments=%d\n", stats1.Experiments)
	b.WriteString(snap1.Fingerprint())
	got := b.String()

	golden := filepath.Join("testdata", "campaign_width.golden")
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
		t.Fatalf("campaign output drifted from golden (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// stubResultForSeed is a pure function of the experiment seed, covering
// every outcome the tally distinguishes — including discarded no-fault runs
// (which exercise the quota stop point) and attributed failures.
func stubResultForSeed(seed int64) Result {
	h := seed
	if h < 0 {
		h = -h
	}
	switch h % 7 {
	case 0, 1:
		return Result{Outcome: OutcomeSuccess, AckedOps: int(h%50) + 1,
			Interruption: time.Duration(1+h%13) * time.Second / 2}
	case 2:
		return Result{Outcome: OutcomeNoKernelFault,
			Detail: newDetail(StageNoFault, "", "injected faults never manifested", nil, nil)}
	case 3:
		return Result{Outcome: OutcomeBootFailure,
			Detail: newDetail(StageTransfer, "", "no watchdog", nil, nil)}
	case 4:
		return Result{Outcome: OutcomeResurrectFailure, StructCorruption: h%14 == 4,
			Detail: newDetail(StageResurrect, "page-copy", "bad frame 0x1a2b", nil, nil)}
	default:
		return Result{Outcome: OutcomeDataCorruption,
			Detail: newDetail(StageWorkload, "", "payload mismatch", nil, nil)}
	}
}

// TestCampaignStubWidthSweep sweeps the pool width over a stubbed campaign
// whose per-seed outcomes cover discards, every failure mode and variable
// interruptions. Rows, attributions and metrics fingerprints must match the
// width-1 baseline exactly at every width.
func TestCampaignStubWidthSweep(t *testing.T) {
	run := func(width int) ([]Table5Row, *CampaignStats, *metrics.Snapshot) {
		cfg := DefaultCampaign(25, 777)
		cfg.Apps = []string{"vi", "JOE"}
		cfg.CampaignWorkers = width
		cfg.Metrics = metrics.NewRegistry()
		cfg.runExperiment = func(ecfg Config) Result { return stubResultForSeed(ecfg.Seed) }
		rows, stats := RunTable5Campaign(cfg)
		return rows, stats, cfg.Metrics.Snapshot()
	}
	baseRows, baseStats, baseSnap := run(1)
	if baseStats.Experiments == 0 || baseRows[0].Discarded == 0 {
		t.Fatalf("stub sweep exercised nothing: %+v", baseRows)
	}
	for _, width := range []int{2, 3, 8} {
		rows, stats, snap := run(width)
		if !reflect.DeepEqual(rows, baseRows) {
			t.Errorf("width %d: rows diverged from width 1:\n%+v\nvs\n%+v", width, rows, baseRows)
		}
		if snap.Fingerprint() != baseSnap.Fingerprint() {
			t.Errorf("width %d: metrics fingerprint diverged:\n%s\nvs\n%s",
				width, snap.Fingerprint(), baseSnap.Fingerprint())
		}
		if stats.Experiments != baseStats.Experiments {
			t.Errorf("width %d: committed experiments diverged: %d vs %d", width, stats.Experiments, baseStats.Experiments)
		}
	}
}
