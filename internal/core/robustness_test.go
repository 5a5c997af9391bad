package core

import (
	"testing"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/resurrect"
)

// TestCyclicProcessListTerminates: a wild write that makes a descriptor's
// Next point back at itself must not hang the crash kernel or clone the
// process. The walk stops at the first descriptor it revisits, so each of
// the two processes is resurrected exactly once.
func TestCyclicProcessListTerminates(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("c1", "counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("c2", "counter"); err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	// The list runs newest first, so c1's descriptor is the tail. Rewrite
	// it so Next forms a self-cycle. The record is re-sealed with a valid
	// CRC: this models logically-wrong-but-intact state (a stale pointer
	// store), the nastier corruption class.
	d := p.D
	d.Next = p.Addr
	if err := m.HW.Mem.WriteAt(p.Addr, layout.Seal(layout.TypeProc, 0, d.EncodePayload())); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("machine should recover: %s", out.Transfer.Reason)
	}
	continued := map[uint32]int{}
	for _, pr := range out.Report.Procs {
		if pr.Outcome == resurrect.OutcomeContinued {
			continued[pr.Candidate.PID]++
		}
	}
	if len(out.Report.Procs) != 2 || len(continued) != 2 {
		t.Fatalf("%d candidates, %d distinct PIDs continued; want 2 and 2", len(out.Report.Procs), len(continued))
	}
	for pid, n := range continued {
		if n != 1 {
			t.Fatalf("PID %d resurrected %d times", pid, n)
		}
	}
}

// TestCyclicFileListTerminates: same property for the fd table.
func TestCyclicFileListTerminates(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("c", "counter")
	if err != nil {
		t.Fatal(err)
	}
	env := &kernel.Env{K: m.K, P: p}
	_ = m.FS.WriteFile("/f", []byte("x"))
	if _, err := env.Open("/f", layout.FlagRead); err != nil {
		t.Fatal(err)
	}
	rec, err := layout.ReadFileRec(m.HW.Mem, p.D.Files, true)
	if err != nil {
		t.Fatal(err)
	}
	rec.Next = p.D.Files // self-cycle
	if err := m.HW.Mem.WriteAt(p.D.Files, layout.Seal(layout.TypeFile, 0, rec.EncodePayload())); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("machine should recover: %s", out.Transfer.Reason)
	}
	// The cyclic fd table is detected; this process fails or degrades but
	// nothing hangs.
	pr := out.Report.Procs[0]
	if pr.Err == nil && pr.Missing == 0 {
		t.Fatal("cyclic fd table should have been noticed")
	}
}

// TestSingleCPUMachine: the halt-NMI protocol degenerates cleanly with one
// processor.
func TestSingleCPUMachine(t *testing.T) {
	m := newTestMachine(t, func(o *Options) { o.HW.NumCPUs = 1 })
	_, err := m.Start("c", "counter")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	if out.Report.Procs[0].Err != nil {
		t.Fatalf("resurrection: %v", out.Report.Procs[0].Err)
	}
}
