package workload

import (
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/resurrect"
)

// TestVolanoSurvivesWithIPCResurrection upgrades the Table 1 negative case:
// with the Section 7 socket-resurrection extension enabled, the chat server
// continues across a microreboot without any crash procedure, and keeps its
// fan-out guarantees.
func TestVolanoSurvivesWithIPCResurrection(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 31
	opts.ResurrectIPC = true
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	d := NewVolanoDriver(9)
	if err := d.Start(m); err != nil {
		t.Fatal(err)
	}
	RunUntilIdle(m, d, 60, 3000)
	before := d.Acked()
	if before == 0 {
		t.Fatal("no progress")
	}

	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != core.ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	pr := out.Report.Procs[0]
	if pr.Outcome != resurrect.OutcomeContinued {
		t.Fatalf("outcome %v (%v), missing=%v", pr.Outcome, pr.Err, pr.Missing)
	}
	if pr.Missing&kernel.ResSockets != 0 {
		t.Fatal("socket should have been resurrected")
	}

	if err := d.Reattach(m); err != nil {
		t.Fatal(err)
	}
	RunUntilIdle(m, d, 60, 3000)
	if d.Acked() <= before {
		t.Fatalf("no progress after resurrection: %d -> %d", before, d.Acked())
	}
	if err := d.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}
