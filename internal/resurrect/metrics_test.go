package resurrect_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/metrics"
)

// TestMetricsSnapshotDeterministicAcrossWorkers is the metrics-plane
// counterpart of TestDeterminismAcrossWorkers: the full machine snapshot —
// phys bus traffic, kernel perf, trace tallies and every resurrect series
// the pool wrote concurrently — must be bit-identical at Workers 1/2/4/8.
// Fingerprint leaves out LogicalNowNS, which TestDeterminismAcrossWorkers
// compares itself. The Workers=1 fingerprint is golden-pinned next to
// fingerprint_mysql_x8.
func TestMetricsSnapshotDeterministicAcrossWorkers(t *testing.T) {
	fps := make(map[int]string)
	for _, w := range []int{1, 2, 4, 8} {
		m := multiMySQLMachine(t, w)
		recoverOutcome(t, m)
		snap := m.MetricsSnapshot()
		if len(snap.Points) == 0 {
			t.Fatalf("Workers=%d: empty snapshot", w)
		}
		fps[w] = snap.Fingerprint()
	}
	for _, w := range []int{2, 4, 8} {
		if fps[w] != fps[1] {
			t.Fatalf("metrics fingerprint differs between Workers=1 and Workers=%d:\n--- w1 ---\n%s\n--- w%d ---\n%s",
				w, fps[1], w, fps[w])
		}
	}

	golden := filepath.Join("testdata", "metrics_mysql_x8.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(fps[1]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if fps[1] != string(want) {
		t.Errorf("metrics fingerprint drifted from golden (re-run with -update if intentional):\ngot:\n%s", fps[1])
	}
}

// TestDeadMetricsSurviveCrash asserts the pstore property end to end: the
// metrics segment the main kernel flushed before its panic survives
// HandleFailure in the dead slot's tail, carries the dead generation's
// counters, and its logical stamp predates the failure handling.
func TestDeadMetricsSurviveCrash(t *testing.T) {
	m := multiMySQLMachine(t, 4)
	pre := m.MetricsSnapshot()
	seg := m.MetricsRegion()
	recoverOutcome(t, m)
	dm := metrics.ParseSegment(m.HW.Mem, seg)
	if dm == nil || dm.Valid == 0 {
		t.Fatalf("dead segment = %+v, want at least one valid page", dm)
	}
	if dm.Corrupted != 0 {
		t.Fatalf("clean crash produced %d corrupted metrics pages", dm.Corrupted)
	}
	steps := dm.Snapshot.Get("kernel_steps_total", nil)
	if steps == nil || steps.Value == 0 {
		t.Fatalf("dead kernel's step counter missing: %+v", steps)
	}
	// The segment records the last pre-failure flush, so its stamp cannot
	// exceed the live pre-crash snapshot's.
	if dm.Snapshot.LogicalNowNS == 0 || dm.Snapshot.LogicalNowNS > pre.LogicalNowNS {
		t.Fatalf("dead stamp %d vs pre-crash %d", dm.Snapshot.LogicalNowNS, pre.LogicalNowNS)
	}
	// The post-morph registry keeps accumulating: the salvage counters for
	// the dead ring are on the machine registry now.
	post := m.MetricsSnapshot()
	if p := post.Get("trace_salvages_total", nil); p == nil || p.Value == 0 {
		t.Fatalf("salvage pass not recorded: %+v", p)
	}
	if p := post.Get("machine_reboots_total", nil); p == nil || p.Value != 1 {
		t.Fatalf("machine_reboots_total = %+v, want 1", p)
	}
}

// TestScanPoolWritesRegistryConcurrently is the pool-race companion to the
// in-package registry race test: whole recoveries run in parallel, each
// with a wide scan pool writing its machine's registry, while this test
// concurrently snapshots those registries. Meaningful under -race.
func TestScanPoolWritesRegistryConcurrently(t *testing.T) {
	machines := make([]*core.Machine, 4)
	for i := range machines {
		machines[i] = raceMachine(t, 6, 4)
	}
	var wg sync.WaitGroup
	for _, m := range machines {
		wg.Add(1)
		go func(m *core.Machine) {
			defer wg.Done()
			if err := m.K.InjectOops("metrics race"); err == nil {
				t.Error("InjectOops returned nil")
				return
			}
			if _, err := m.HandleFailure(); err != nil {
				t.Error(err)
			}
		}(m)
		wg.Add(1)
		go func(m *core.Machine) {
			defer wg.Done()
			// Reader racing the pool: snapshots must always be coherent.
			for i := 0; i < 20; i++ {
				_ = m.Metrics().Snapshot()
			}
		}(m)
	}
	wg.Wait()
	for i, m := range machines {
		p := m.MetricsSnapshot().Get("resurrect_scans_total", nil)
		if p == nil || p.Value != 6 {
			t.Fatalf("machine %d: resurrect_scans_total = %+v, want 6", i, p)
		}
	}
}

// TestMetricsDisabled pins the off switch: MetricsPages=0 must yield a nil
// registry, no metrics segment, and a recovery that still works.
func TestMetricsDisabled(t *testing.T) {
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 7
	opts.MetricsPages = 0
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics() != nil {
		t.Fatal("MetricsPages=0 should disable the registry")
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Start(fmt.Sprintf("p%d", i), "t1-plain"); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(30)
	if reg := m.MetricsRegion(); reg.Frames != 0 {
		t.Fatalf("disabled plane carved a metrics segment: %v", reg)
	}
	recoverOutcome(t, m)
	snap := m.MetricsSnapshot()
	if snap == nil || len(snap.Points) != 0 {
		t.Fatalf("disabled snapshot = %+v", snap)
	}
}
