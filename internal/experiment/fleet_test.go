package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
)

// compareGolden pins got against testdata/name, rewriting under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from golden (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}

// TestFleetRecoverySmoke runs the small fleet end to end: recovery
// succeeds, every tier has candidates, and the rendered table carries the
// index-discovery attribution. This is the `make verify` fleet smoke.
func TestFleetRecoverySmoke(t *testing.T) {
	cfg := DefaultFleet(48, 7)
	res, err := FleetRecovery(cfg)
	if err != nil {
		t.Fatalf("FleetRecovery: %v", err)
	}
	if res.Population != 48 {
		t.Fatalf("population = %d, want 48", res.Population)
	}
	for _, st := range res.Tiers {
		if st.Procs == 0 {
			t.Errorf("tier-%d has no candidates", st.Tier)
		}
		if !st.HasPercentiles {
			t.Errorf("tier-%d has candidates but no percentiles", st.Tier)
		}
	}
	if res.IndexUsed == 0 || res.IndexFallback != "" {
		t.Errorf("index discovery not used: used=%d fallback=%q", res.IndexUsed, res.IndexFallback)
	}
	tab := res.RenderFleetTable()
	if !strings.Contains(tab, "discovery=index") {
		t.Errorf("table missing index attribution:\n%s", tab)
	}
	rep := res.Outcome.Report
	if !rep.Streamed {
		t.Fatalf("report not streamed")
	}
	if len(rep.Tiers) != len(rep.PerCandidate) {
		t.Fatalf("tiers %d != candidates %d", len(rep.Tiers), len(rep.PerCandidate))
	}
	// Admission is tier-then-PID: tiers must be non-decreasing up to
	// aging, and with this small population aging never demotes anyone.
	for i := 1; i < len(rep.Tiers); i++ {
		if rep.Tiers[i] < rep.Tiers[i-1] {
			t.Fatalf("admission order regressed: tier %d after tier %d at %d",
				rep.Tiers[i], rep.Tiers[i-1], i)
		}
	}
}

// TestFleetCorruptIndexFallsBack smashes the index header and requires the
// discovery to degrade to the full walk — attributed, skip-and-count,
// recovery still whole.
func TestFleetCorruptIndexFallsBack(t *testing.T) {
	cfg := DefaultFleet(48, 7)
	cfg.CorruptIndex = true
	res, err := FleetRecovery(cfg)
	if err != nil {
		t.Fatalf("FleetRecovery: %v", err)
	}
	if !strings.HasPrefix(res.IndexFallback, "index-salvage: ") {
		t.Fatalf("fallback attribution = %q, want index-salvage prefix", res.IndexFallback)
	}
	if res.IndexUsed != 0 {
		t.Fatalf("corrupt index still reported %d used entries", res.IndexUsed)
	}
	for _, st := range res.Tiers {
		if st.Procs == 0 {
			t.Errorf("tier-%d lost its candidates in the fallback", st.Tier)
		}
	}
	if got := res.RenderFleetTable(); !strings.Contains(got, "full-walk after") {
		t.Errorf("table missing fallback attribution:\n%s", got)
	}
}

// TestFleetIndexBeatsFullWalk pins the index-assisted discovery win: the
// prologue with a salvaged index must be shorter than the full-heap walk's
// on the same fleet, same seed.
func TestFleetIndexBeatsFullWalk(t *testing.T) {
	indexed, err := FleetRecovery(DefaultFleet(96, 11))
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	walk := DefaultFleet(96, 11)
	walk.IndexSlots = 0
	walked, err := FleetRecovery(walk)
	if err != nil {
		t.Fatalf("full walk: %v", err)
	}
	if indexed.IndexUsed == 0 {
		t.Fatalf("indexed run did not use the index")
	}
	if walked.IndexUsed != 0 || walked.IndexFallback != "" {
		t.Fatalf("walk run touched the index: used=%d fallback=%q",
			walked.IndexUsed, walked.IndexFallback)
	}
	if indexed.Prologue >= walked.Prologue {
		t.Fatalf("index prologue %v not better than full walk %v",
			indexed.Prologue, walked.Prologue)
	}
	t.Logf("prologue: index=%v walk=%v (%.2fx)", indexed.Prologue, walked.Prologue,
		float64(walked.Prologue)/float64(indexed.Prologue))
}

// TestFleetStreamingTier0FirstResume is the headline acceptance: on a
// ≥512-process fleet the streaming pass must deliver at least 2× lower
// time-to-first-resume for the critical tier than the batch engine, at the
// canonical width.
func TestFleetStreamingTier0FirstResume(t *testing.T) {
	if testing.Short() {
		t.Skip("512-process fleet; skipped in -short")
	}
	stream, err := FleetRecovery(DefaultFleet(512, 3))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	batchCfg := DefaultFleet(512, 3)
	batchCfg.Stream = false
	batch, err := FleetRecovery(batchCfg)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	st := stream.Tiers[sched.TierCritical]
	bt := batch.Tiers[sched.TierCritical]
	if st.Procs == 0 || bt.Procs == 0 {
		t.Fatalf("tier-0 empty: stream=%d batch=%d", st.Procs, bt.Procs)
	}
	if st.Procs != bt.Procs {
		t.Fatalf("tier-0 population differs: stream=%d batch=%d", st.Procs, bt.Procs)
	}
	if 2*st.FirstResume > bt.FirstResume {
		t.Fatalf("tier-0 first-resume: stream=%v batch=%v, want ≥2x better",
			st.FirstResume, bt.FirstResume)
	}
	t.Logf("tier-0 first-resume: stream=%v batch=%v (%.1fx)",
		st.FirstResume, bt.FirstResume, float64(bt.FirstResume)/float64(st.FirstResume))
}

// TestFleetWidthDeterminism is the 1-vs-8 golden: every fingerprinted
// observable of the fleet recovery — resurrection report, per-tier table,
// span tree — must be byte-identical when only the live worker widths
// change. Eager and lazy, against committed goldens. Each recovery's
// critical path must also read the streamed pass's own schedule
// (checkCriticalPath).
func TestFleetWidthDeterminism(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			var prints []string
			for _, w := range []int{1, 8} {
				cfg := DefaultFleet(48, 7)
				cfg.Workers = w
				cfg.Lazy = lazy
				res, err := FleetRecovery(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				tree, err := res.FleetSpanTree(cfg.Seed, lazy, resurrect.CanonicalWorkers)
				if err != nil {
					t.Fatalf("workers=%d span tree: %v", w, err)
				}
				print := res.Outcome.Report.Fingerprint() + res.RenderFleetTable() + tree.Fingerprint()
				prints = append(prints, print)
				checkCriticalPath(t, res.Machine, res.Outcome, "fleet", cfg.Seed, lazy)
			}
			if prints[0] != prints[1] {
				t.Fatalf("fleet observables differ between 1 and 8 workers:\n--- w=1\n%s\n--- w=8\n%s",
					prints[0], prints[1])
			}
			compareGolden(t, "fleet_width_"+name+".golden", prints[0])
		})
	}
}
