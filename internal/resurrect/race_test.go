package resurrect_test

import (
	"bytes"
	"fmt"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
)

// These tests exist for the -race pass (make race / make verify): the scan
// phase fans candidates out to concurrent workers that all read the dead
// kernel's memory and the shared swap device, so the detector sees the real
// worker pool, not a mock.

// raceMachine builds a machine with n cheap processes and the resurrection
// pool pinned to the given width.
func raceMachine(t *testing.T, n, workers int) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 128 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = 77
	opts.Resurrection.Workers = workers
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := m.Start(fmt.Sprintf("p%d", i), "t1-plain"); err != nil {
			t.Fatalf("start p%d: %v", i, err)
		}
	}
	m.Run(30)
	return m
}

// TestWorkerPoolOverlappingCandidates runs more candidates than workers so
// every worker scans several in sequence while its peers are mid-candidate
// — the overlap that would expose an unsharded counter or reader.
func TestWorkerPoolOverlappingCandidates(t *testing.T) {
	m := raceMachine(t, 8, 3)
	out := recoverOutcome(t, m)
	if out.Report.Parallel.Workers != 3 {
		t.Fatalf("pool width = %d, want 3", out.Report.Parallel.Workers)
	}
	if got := out.Report.Succeeded(); got != 8 {
		t.Fatalf("succeeded = %d, want 8", got)
	}
}

// TestWorkerPoolCorruptedPageTable corrupts one candidate's page directory
// before the crash: under -race this exercises the scan error paths while
// other workers are still copying pages, and the damage must stay contained
// to the corrupted process at any pool width.
func TestWorkerPoolCorruptedPageTable(t *testing.T) {
	run := func(workers int) *resurrect.Report {
		m := raceMachine(t, 6, workers)
		victim := m.K.Procs()[2]
		if err := m.HW.Mem.WriteU64(victim.D.PageDir, 0xDEADBEEF); err != nil {
			t.Fatal(err)
		}
		return recoverOutcome(t, m).Report
	}
	rep4 := run(4)
	failed := 0
	for _, pr := range rep4.Procs {
		if pr.Outcome == resurrect.OutcomeFailed {
			failed++
		}
	}
	if failed != 1 || rep4.Succeeded() != 5 {
		t.Fatalf("failed=%d succeeded=%d, want 1/5", failed, rep4.Succeeded())
	}
	// The failure handling itself must stay deterministic across widths.
	if fp1, fp4 := run(1).Fingerprint(), rep4.Fingerprint(); fp1 != fp4 {
		t.Fatalf("corrupted-candidate fingerprint differs between Workers=1 and Workers=4")
	}
}

// TestBatchScanBarrier aims the second candidate's dead PTE at the frame the
// first candidate's install allocates, with marker bytes in that frame. A
// batch pass finishes every scan before the first install, so the second
// candidate must come back with the dead frame's marker, not the first
// install's page, and the report must not depend on the pool width.
func TestBatchScanBarrier(t *testing.T) {
	crash := func(workers int) (*core.Machine, []*kernel.Process) {
		opts := core.DefaultOptions()
		opts.HW = hw.Config{MemoryBytes: 128 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
		opts.CrashRegionMB = 16
		opts.Seed = 31
		opts.Resurrection.Workers = workers
		m, err := core.NewMachine(opts)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		var procs []*kernel.Process
		for _, name := range []string{"fp-a", "fp-b"} {
			p, err := m.Start(name, "fp-prog")
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p)
		}
		m.Run(20)
		if err := m.K.InjectOops("scan barrier"); err == nil {
			t.Fatal("InjectOops returned nil")
		}
		return m, procs
	}
	recoverAll := func(m *core.Machine) *resurrect.Report {
		out, err := m.HandleFailure()
		if err != nil {
			t.Fatalf("HandleFailure: %v", err)
		}
		if out.Result != core.ResultRecovered || len(out.Report.Procs) != 2 {
			t.Fatalf("result %v with %d procs", out.Result, len(out.Report.Procs))
		}
		return out.Report
	}

	// A clean pass names the frame the first install fills with its
	// pattern page.
	m, _ := crash(1)
	first := recoverAll(m).Procs[0]
	pte, err := m.HW.Mem.ReadU64(ptePhysAddr(t, m, m.K.Lookup(first.NewPID), fpVA))
	if err != nil {
		t.Fatal(err)
	}
	frame := layout.PTE(pte).Frame()

	marker := bytes.Repeat([]byte("dead"), phys.PageSize/4)
	run := func(workers int) *resurrect.Report {
		m, procs := crash(workers)
		victim := procs[0]
		if victim.PID == first.Candidate.PID {
			victim = procs[1]
		}
		if err := m.HW.Mem.WriteAt(phys.FrameAddr(frame), marker); err != nil {
			t.Fatal(err)
		}
		wild := uint64(layout.MakePresentPTE(frame, true))
		if err := m.HW.Mem.WriteU64(ptePhysAddr(t, m, victim, fpVA+phys.PageSize), wild); err != nil {
			t.Fatal(err)
		}
		rep := recoverAll(m)
		second := rep.Procs[1]
		if second.Candidate.PID != victim.PID {
			t.Fatalf("workers=%d: second candidate pid %d, want %d", workers, second.Candidate.PID, victim.PID)
		}
		got := make([]byte, phys.PageSize)
		if err := m.K.ReadVM(m.K.Lookup(second.NewPID), fpVA+phys.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, marker) {
			t.Errorf("workers=%d: second candidate's page reads %q..., want the dead frame's %q...",
				workers, got[:8], marker[:8])
		}
		return rep
	}
	if fp1, fp8 := run(1).Fingerprint(), run(8).Fingerprint(); fp1 != fp8 {
		t.Fatalf("fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", fp1, fp8)
	}
}

// TestConcurrentRecoveries runs whole machines' recoveries in parallel,
// each with its own multi-worker resurrection pool — pool-inside-pool, as a
// campaign with ResurrectWorkers set produces. Machines are built serially
// (the helper uses t.Fatal); only the recovery runs concurrently.
func TestConcurrentRecoveries(t *testing.T) {
	machines := make([]*core.Machine, 4)
	for i := range machines {
		machines[i] = raceMachine(t, 5, 4)
	}
	done := make(chan error, len(machines))
	for _, m := range machines {
		go func(m *core.Machine) {
			if err := m.K.InjectOops("race"); err == nil {
				done <- fmt.Errorf("InjectOops returned nil")
				return
			}
			out, err := m.HandleFailure()
			if err != nil {
				done <- err
				return
			}
			if out.Result != core.ResultRecovered {
				done <- fmt.Errorf("transfer failed: %s", out.Transfer.Reason)
				return
			}
			done <- nil
		}(m)
	}
	for range machines {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
