package resurrect_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/resurrect"
)

var update = flag.Bool("update", false, "rewrite golden files")

// mysqlMachine builds n warmed MySQL servers on one machine, with the
// resurrection pool pinned to the given worker count and the demand-paged
// install on when lazy is set.
func mysqlMachine(t *testing.T, n, workers int, lazy bool) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 4242
	opts.Resurrection.Workers = workers
	opts.LazyInstall = lazy
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for j := 0; j < n; j++ {
		if _, err := m.Start(fmt.Sprintf("mysqld-%d", j), apps.ProgMySQL); err != nil {
			t.Fatalf("start mysqld-%d: %v", j, err)
		}
	}
	m.Run(200)
	return m
}

// multiMySQLMachine builds the parallel-resurrection scenario: eight MySQL
// servers on one machine, warmed up, with the resurrection pipeline pinned
// to the given worker count.
func multiMySQLMachine(t *testing.T, workers int) *core.Machine {
	t.Helper()
	return mysqlMachine(t, 8, workers, false)
}

func recoverOutcome(t *testing.T, m *core.Machine) *core.FailureOutcome {
	t.Helper()
	if err := m.K.InjectOops("determinism"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != core.ResultRecovered {
		t.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	return out
}

// requireSameClock fails unless two recoveries of one scenario, at pool
// widths 1 and 8, left the same outage, machine clock and metrics stamp:
// the pool width sets how many goroutines scan, never the modeled clock.
func requireSameClock(t *testing.T, m1, m8 *core.Machine, out1, out8 *core.FailureOutcome) {
	t.Helper()
	if out1.Interruption != out8.Interruption {
		t.Errorf("interruption depends on the pool width: %v at 1, %v at 8", out1.Interruption, out8.Interruption)
	}
	if c1, c8 := m1.HW.Clock.Now(), m8.HW.Clock.Now(); c1 != c8 {
		t.Errorf("machine clock depends on the pool width: %v at 1, %v at 8", c1, c8)
	}
	if s1, s8 := m1.MetricsSnapshot().LogicalNowNS, m8.MetricsSnapshot().LogicalNowNS; s1 != s8 {
		t.Errorf("metrics stamp depends on the pool width: %d at 1, %d at 8", s1, s8)
	}
}

// TestDeterminismAcrossWorkers is the tentpole invariant: the entire Report
// — candidates, per-process timelines, Table 4 accounting, per-candidate
// durations — and the machine clock must be identical whether the scan ran
// on one worker or eight. The Workers=1 fingerprint is additionally
// golden-compared so an accidental change to the serial semantics cannot
// hide behind the 1-vs-8 equality.
func TestDeterminismAcrossWorkers(t *testing.T) {
	m1, m8 := multiMySQLMachine(t, 1), multiMySQLMachine(t, 8)
	out1, out8 := recoverOutcome(t, m1), recoverOutcome(t, m8)
	rep1, rep8 := out1.Report, out8.Report

	fp1, fp8 := rep1.Fingerprint(), rep8.Fingerprint()
	if fp1 != fp8 {
		t.Fatalf("fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", fp1, fp8)
	}
	if !reflect.DeepEqual(rep1.Acct.ByCategory, rep8.Acct.ByCategory) {
		t.Fatalf("accounting differs:\nw1: %v\nw8: %v", rep1.Acct.ByCategory, rep8.Acct.ByCategory)
	}

	// The clock advances by the canonical-width schedule at any pool
	// width; for an eager pass the installs are the blocked spans, so the
	// outage is exactly the canonical model.
	requireSameClock(t, m1, m8, out1, out8)
	if out1.SerialInterruption != out8.SerialInterruption {
		t.Fatalf("serial interruption differs: %v vs %v", out1.SerialInterruption, out8.SerialInterruption)
	}
	c := resurrect.CanonicalWorkers
	if out1.InterruptionAt(c) != out8.InterruptionAt(c) {
		t.Fatalf("canonical interruption differs: %v vs %v", out1.InterruptionAt(c), out8.InterruptionAt(c))
	}
	if out1.Interruption != out1.InterruptionAt(c) {
		t.Fatalf("eager interruption %v is not the canonical model %v", out1.Interruption, out1.InterruptionAt(c))
	}

	golden := filepath.Join("testdata", "fingerprint_mysql_x8.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(fp1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if fp1 != string(want) {
		t.Errorf("fingerprint drifted from golden (re-run with -update if intentional):\ngot:\n%s", fp1)
	}
}

// TestResurrectParallelSpeedup asserts that on the eight-MySQL scenario the
// modeled interruption speedup at four workers is at least 2x. A single
// MySQL server, eager or lazy, is the other input: one candidate (every
// Table 5 and Table 6 experiment) has the same schedule at every width, so
// its outage has no parallel variant.
func TestResurrectParallelSpeedup(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		out := recoverOutcome(t, mysqlMachine(t, 1, 0, lazy))
		rep := out.Report
		if len(rep.Procs) != 1 {
			t.Fatalf("lazy=%v: %d candidates, want 1", lazy, len(rep.Procs))
		}
		for _, w := range []int{1, 4, 8} {
			if got := rep.ScheduleAt(w); got != rep.Duration {
				t.Errorf("lazy=%v: one-candidate schedule at %d workers = %v, want the serial %v",
					lazy, w, got, rep.Duration)
			}
			if got := out.InterruptionAt(w); got != out.SerialInterruption {
				t.Errorf("lazy=%v: one-candidate outage at %d workers = %v, want the serial %v",
					lazy, w, got, out.SerialInterruption)
			}
		}
	}

	out := recoverOutcome(t, multiMySQLMachine(t, 0))
	rep := out.Report
	if got := rep.SpeedupAt(4); got < 2 {
		t.Fatalf("speedup at 4 workers = %.2fx, want >= 2x (serial %v, sched@4 %v)",
			got, rep.Duration, rep.ScheduleAt(4))
	}
	if got := rep.SpeedupAt(1); got != 1 {
		t.Fatalf("speedup at 1 worker = %v, want exactly 1", got)
	}
	// More workers never slow the modeled schedule down.
	prev := rep.ScheduleAt(1)
	for w := 2; w <= 16; w++ {
		cur := rep.ScheduleAt(w)
		if cur > prev {
			t.Fatalf("schedule at %d workers (%v) slower than at %d (%v)", w, cur, w-1, prev)
		}
		prev = cur
	}
}
