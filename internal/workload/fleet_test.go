package workload

import (
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/resurrect"
)

// TestWholeFleetSurvivesOneMicroreboot runs every Table 5 application on
// the same machine simultaneously — the paper's multi-process scenario
// where the user selects several processes for resurrection — crashes the
// kernel once, and verifies every application against its own remote log.
func TestWholeFleetSurvivesOneMicroreboot(t *testing.T) {
	m := testMachine(t, 999)
	fleet := []Driver{
		NewEditorDriver("vi", "vi", 1),
		NewEditorDriver("joe", "joe", 2),
		NewMySQLDriver(3),
		NewApacheDriver(4),
		NewBLCRDriver(5),
		NewShellDriver(6),
	}
	for _, d := range fleet {
		if err := d.Start(m); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
	for _, d := range fleet {
		d.Pump(m, 80)
	}
	if res := m.Run(6000); res.Panic != nil {
		t.Fatalf("panic during warmup: %v", res.Panic)
	}
	for _, d := range fleet {
		if d.Acked() == 0 {
			t.Fatalf("%s made no progress", d.Name())
		}
	}

	if err := m.K.InjectOops("fleet crash"); err == nil {
		t.Fatal("no panic")
	}
	out, err := m.HandleFailure()
	if err != nil || out.Result != core.ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	if len(out.Report.Candidates) != len(fleet) {
		t.Fatalf("candidates = %d, want %d", len(out.Report.Candidates), len(fleet))
	}
	for _, pr := range out.Report.Procs {
		if pr.Outcome != resurrect.OutcomeContinued && pr.Outcome != resurrect.OutcomeRestarted {
			t.Fatalf("%s: outcome %v (%v)", pr.Candidate.Name, pr.Outcome, pr.Err)
		}
	}

	for _, d := range fleet {
		if err := d.Reattach(m); err != nil {
			t.Fatalf("%s reattach: %v", d.Name(), err)
		}
	}
	for _, d := range fleet {
		d.Pump(m, 40)
	}
	if res := m.Run(4000); res.Panic != nil {
		t.Fatalf("panic after resurrection: %v", res.Panic)
	}
	for _, d := range fleet {
		if err := d.Verify(m); err != nil {
			t.Fatalf("%s verify: %v", d.Name(), err)
		}
	}
}

// TestSelectiveResurrectionDropsTheRest reproduces Section 3.3's
// configuration-file behaviour at fleet scale: only the named processes are
// revived; the window manager and friends restart fresh instead.
func TestSelectiveResurrectionDropsTheRest(t *testing.T) {
	m := testMachine(t, 1001)
	// Configure via a fresh machine: names only.
	opts := core.DefaultOptions()
	opts.Seed = 1001
	opts.Resurrection = resurrect.Config{Names: []string{"mysqld"}}
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	db := NewMySQLDriver(3)
	ed := NewEditorDriver("vi", "vi", 4)
	if err := db.Start(m); err != nil {
		t.Fatal(err)
	}
	if err := ed.Start(m); err != nil {
		t.Fatal(err)
	}
	db.Pump(m, 50)
	ed.Pump(m, 50)
	m.Run(4000)

	_ = m.K.InjectOops("selective")
	out, err := m.HandleFailure()
	if err != nil || out.Result != core.ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	if len(out.Report.Procs) != 1 || out.Report.Procs[0].Candidate.Name != "mysqld" {
		t.Fatalf("resurrected %v", out.Report.Procs)
	}
	if FindProc(m, "vi") != nil {
		t.Fatal("vi should not have been resurrected")
	}
	if err := db.Reattach(m); err != nil {
		t.Fatal(err)
	}
	db.Pump(m, 30)
	m.Run(2000)
	if err := db.Verify(m); err != nil {
		t.Fatalf("mysql verify: %v", err)
	}
}
