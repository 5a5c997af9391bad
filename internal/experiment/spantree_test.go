package experiment

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"otherworld/internal/core"
)

// TestSpanTreeWidthDeterminism pins the tentpole property of the causal
// span plane: the reconstructed span tree for the warmed 8xMySQL recovery
// is bit-identical at any LIVE resurrect-worker width, in both install
// modes. The rendered text (which doubles as the tree's fingerprint, and
// includes the critical-path shares and first-touch percentiles) is
// golden-pinned per mode, so a drift in the builder, the schedule model or
// the renderer shows up as a readable diff. Each recovery's critical path
// must also read the batch pass's own schedule (checkCriticalPath).
func TestSpanTreeWidthDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full crash-and-resurrect scenarios")
	}
	const seed = 20100413
	for _, tc := range []struct {
		name   string
		lazy   bool
		golden string
	}{
		{"eager", false, "spantree_mysql_x8_eager.golden"},
		{"lazy", true, "spantree_mysql_x8_lazy.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prints := make(map[int]string, 2)
			for _, w := range []int{1, 8} {
				fo, m, err := MultiMySQLRecovery(seed, w, tc.lazy)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				tree, err := SpanTreeFor(m, fo, "mysql-x8", seed, tc.lazy, 0)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if tree.Skipped != 0 {
					t.Errorf("workers=%d: clean scenario skipped %d inputs", w, tree.Skipped)
				}
				prints[w] = tree.Fingerprint()
				checkCriticalPath(t, m, fo, "mysql-x8", seed, tc.lazy)
			}
			if prints[1] != prints[8] {
				t.Fatalf("span tree differs between 1 and 8 resurrect workers:\n--- 1w ---\n%s\n--- 8w ---\n%s",
					prints[1], prints[8])
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(prints[1]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if prints[1] != string(want) {
				t.Fatalf("span tree drifted from golden (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
					prints[1], want)
			}
		})
	}
}

// checkCriticalPath pins the span plane to the schedule model the outage
// itself is computed with: at every analysis width the critical path's
// interruption equals FailureOutcome.InterruptionAt, and its shares add up
// to it exactly.
func checkCriticalPath(t *testing.T, m *core.Machine, fo *core.FailureOutcome, app string, seed int64, lazy bool) {
	t.Helper()
	for _, w := range []int{1, 4, 8} {
		tree, err := SpanTreeFor(m, fo, app, seed, lazy, w)
		if err != nil {
			t.Fatalf("analysis workers=%d: %v", w, err)
		}
		cp := tree.Critical
		if want := fo.InterruptionAt(w); cp.Interruption != want {
			t.Errorf("analysis workers=%d: critical path %v, InterruptionAt %v", w, cp.Interruption, want)
		}
		var sum time.Duration
		for _, s := range cp.Shares {
			sum += s.Dur
		}
		if sum != cp.Interruption {
			t.Errorf("analysis workers=%d: shares sum %v, critical path %v", w, sum, cp.Interruption)
		}
	}
}

// TestFleetBatchCriticalPath runs the fleet without streaming, so the
// critical-path check covers a batch pass over a mixed population too (the
// streamed fleet is checked in TestFleetWidthDeterminism).
func TestFleetBatchCriticalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full fleet recoveries")
	}
	for _, lazy := range []bool{false, true} {
		cfg := DefaultFleet(48, 7)
		cfg.Lazy, cfg.Stream = lazy, false
		res, err := FleetRecovery(cfg)
		if err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		checkCriticalPath(t, res.Machine, res.Outcome, "fleet", cfg.Seed, lazy)
	}
}
