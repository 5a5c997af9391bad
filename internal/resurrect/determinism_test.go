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
	"otherworld/internal/hw"
	"otherworld/internal/resurrect"
)

var update = flag.Bool("update", false, "rewrite golden files")

// multiMySQLMachine builds the ISSUE 3 acceptance scenario: eight MySQL
// servers on one machine, warmed up, with the resurrection pipeline pinned
// to the given worker count.
func multiMySQLMachine(t *testing.T, workers int) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 256 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = 4242
	opts.Resurrection.Workers = workers
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for j := 0; j < 8; j++ {
		if _, err := m.Start(fmt.Sprintf("mysqld-%d", j), apps.ProgMySQL); err != nil {
			t.Fatalf("start mysqld-%d: %v", j, err)
		}
	}
	m.Run(200)
	return m
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

// TestDeterminismAcrossWorkers is the tentpole invariant: the entire Report
// — candidates, per-process timelines, Table 4 accounting, per-candidate
// durations — must be byte-identical whether the
// scan ran on one worker or eight. Only Parallel (the live schedule) may
// differ. The Workers=1 fingerprint is additionally golden-compared so an
// accidental change to the serial semantics cannot hide behind the
// 1-vs-8 equality.
func TestDeterminismAcrossWorkers(t *testing.T) {
	out1 := recoverOutcome(t, multiMySQLMachine(t, 1))
	out8 := recoverOutcome(t, multiMySQLMachine(t, 8))
	rep1, rep8 := out1.Report, out8.Report

	fp1, fp8 := rep1.Fingerprint(), rep8.Fingerprint()
	if fp1 != fp8 {
		t.Fatalf("fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", fp1, fp8)
	}
	if !reflect.DeepEqual(rep1.Acct.ByCategory, rep8.Acct.ByCategory) {
		t.Fatalf("accounting differs:\nw1: %v\nw8: %v", rep1.Acct.ByCategory, rep8.Acct.ByCategory)
	}

	// Live-schedule invariants: one worker means serial == parallel; eight
	// workers must report the width it ran at and a shorter critical path.
	if rep1.Parallel.Workers != 1 || rep8.Parallel.Workers != 8 {
		t.Fatalf("pool widths = %d, %d", rep1.Parallel.Workers, rep8.Parallel.Workers)
	}
	if rep1.Parallel.Duration != rep1.Duration {
		t.Fatalf("Workers=1: live schedule %v != serial model %v", rep1.Parallel.Duration, rep1.Duration)
	}
	if rep8.Parallel.Duration >= rep1.Parallel.Duration {
		t.Fatalf("Workers=8 schedule %v not faster than Workers=1 %v", rep8.Parallel.Duration, rep1.Parallel.Duration)
	}

	// The corrected interruptions are worker-count-independent.
	if out1.SerialInterruption != out8.SerialInterruption {
		t.Fatalf("serial interruption differs: %v vs %v", out1.SerialInterruption, out8.SerialInterruption)
	}
	c := resurrect.CanonicalWorkers
	if out1.InterruptionAt(c) != out8.InterruptionAt(c) {
		t.Fatalf("canonical interruption differs: %v vs %v", out1.InterruptionAt(c), out8.InterruptionAt(c))
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

// TestResurrectParallelSpeedup asserts the ISSUE 3 acceptance criterion
// directly: on the eight-MySQL scenario the modeled interruption speedup at
// four workers is at least 2x.
func TestResurrectParallelSpeedup(t *testing.T) {
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
