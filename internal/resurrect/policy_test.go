package resurrect_test

import (
	"strings"
	"testing"

	"otherworld/internal/kernel"
	"otherworld/internal/resurrect"
)

// Edge cases for the selection and policy layers: conflicting configs,
// crash-procedure names that resolve to nothing, crash procedures that
// return actions the policy table does not know, and descriptors that name
// programs the crash kernel has no image for (the shape a kernel thread's
// descriptor would take — there is no executable to re-map).

// TestConfigWantsPolicyConflicts pins the precedence rules Wants applies
// when the configuration is contradictory or the names are degenerate.
func TestConfigWantsPolicyConflicts(t *testing.T) {
	cases := []struct {
		name string
		cfg  resurrect.Config
		cand string
		want bool
	}{
		// All and Names both set: All wins, even for names not listed.
		{"all-overrides-names", resurrect.Config{All: true, Names: []string{"keep"}}, "other", true},
		{"all-overrides-empty-name", resurrect.Config{All: true, Names: []string{"keep"}}, "", true},
		// An empty entry in Names matches only the empty candidate name.
		{"empty-entry-matches-empty", resurrect.Config{Names: []string{""}}, "", true},
		{"empty-entry-not-wildcard", resurrect.Config{Names: []string{""}}, "keep", false},
		{"named-skips-empty-cand", resurrect.Config{Names: []string{"keep"}}, "", false},
		// Duplicates are harmless; a match is a match.
		{"duplicate-names", resurrect.Config{Names: []string{"keep", "keep"}}, "keep", true},
		// Workers is a schedule knob, never a selector.
		{"workers-alone-selects-nothing", resurrect.Config{Workers: 8}, "keep", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cfg.Wants(resurrect.Candidate{Name: tc.cand}); got != tc.want {
				t.Fatalf("Wants(%q) = %v, want %v", tc.cand, got, tc.want)
			}
		})
	}
}

// TestUnregisteredCrashProcMissingResources: the descriptor names a crash
// procedure that is not in the crash kernel's registry. With unresurrected
// resources that is fatal — nil procedure is treated exactly like no
// procedure (Table 1, bottom-left quadrant).
func TestUnregisteredCrashProcMissingResources(t *testing.T) {
	m := newMachine(t)
	p, err := m.Start("p", "t1-sock")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.RegisterCrashProcedure(p, "t1-no-such-proc"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	before := crashProcState.called
	pr := crashAndRecover(t, m)
	if pr.Candidate.CrashProc != "t1-no-such-proc" {
		t.Fatalf("candidate crash proc = %q", pr.Candidate.CrashProc)
	}
	if pr.Outcome != resurrect.OutcomeFailed || pr.CrashProcCalled {
		t.Fatalf("outcome %v called=%v", pr.Outcome, pr.CrashProcCalled)
	}
	if pr.Err == nil || !strings.Contains(pr.Err.Error(), "no crash procedure") {
		t.Fatalf("err = %v", pr.Err)
	}
	if crashProcState.called != before {
		t.Fatal("some registered crash procedure ran for an unregistered name")
	}
}

// TestUnregisteredCrashProcAllResources: the same dangling name is harmless
// when everything was resurrected — the process simply continues, as if it
// had never registered a procedure.
func TestUnregisteredCrashProcAllResources(t *testing.T) {
	m := newMachine(t)
	p, err := m.Start("p", "t1-plain")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.RegisterCrashProcedure(p, "t1-no-such-proc"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeContinued || pr.CrashProcCalled {
		t.Fatalf("outcome %v called=%v err=%v", pr.Outcome, pr.CrashProcCalled, pr.Err)
	}
}

// TestUnknownCrashActionGivesUp: a crash procedure returning an action
// outside the defined set must land in the conservative default — abandon
// the process — rather than continue with undefined state.
func TestUnknownCrashActionGivesUp(t *testing.T) {
	m := newMachine(t)
	p, err := m.Start("p", "t1-plain-cp")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.RegisterCrashProcedure(p, "t1-tracker"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	crashProcState = struct {
		called  int
		missing kernel.ResourceMask
		action  kernel.CrashAction
	}{action: kernel.CrashAction(99)}
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeGaveUp || !pr.CrashProcCalled {
		t.Fatalf("outcome %v called=%v", pr.Outcome, pr.CrashProcCalled)
	}
	if len(m.K.Procs()) != 0 {
		t.Fatal("abandoned process should not be running under the crash kernel")
	}
}

// TestKernelThreadLikeCandidateFailsParse: a descriptor whose program the
// crash kernel cannot find on disk — the shape a kernel thread presents,
// since it has no user executable — must fail cleanly at the parse phase
// and not disturb its neighbours.
func TestKernelThreadLikeCandidateFailsParse(t *testing.T) {
	m := newMachine(t)
	kt, err := m.Start("kworker", "t1-plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("app", "t1-plain"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	// Rewrite the descriptor in place so it names a program with no image
	// on disk; the record stays well-formed (sealed, CRC-valid).
	d := kt.D
	d.Program = "kthread"
	if err := m.HW.Mem.WriteAt(kt.Addr, d.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.K.InjectOops("x"); err == nil {
		t.Fatal("no panic")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if len(out.Report.Procs) != 2 {
		t.Fatalf("reports = %d", len(out.Report.Procs))
	}
	var ktPr, appPr *resurrect.ProcReport
	for i := range out.Report.Procs {
		switch out.Report.Procs[i].Candidate.Name {
		case "kworker":
			ktPr = &out.Report.Procs[i]
		case "app":
			appPr = &out.Report.Procs[i]
		}
	}
	if ktPr == nil || appPr == nil {
		t.Fatalf("candidates missing from report: %+v", out.Report.Candidates)
	}
	if ktPr.Outcome != resurrect.OutcomeFailed {
		t.Fatalf("kthread-like outcome %v", ktPr.Outcome)
	}
	if ktPr.Err == nil || !strings.Contains(ktPr.Err.Error(), "not on disk") {
		t.Fatalf("err = %v", ktPr.Err)
	}
	if appPr.Outcome != resurrect.OutcomeContinued {
		t.Fatalf("neighbour outcome %v err=%v", appPr.Outcome, appPr.Err)
	}
}

// TestZombiesSkippedAtAnyPoolWidth extends the zombie exclusion to a mixed
// population under a multi-worker scan: exited processes never become
// candidates, and the survivors all resurrect.
func TestZombiesSkippedAtAnyPoolWidth(t *testing.T) {
	m := newMachine(t)
	var zombies []*kernel.Process
	for _, n := range []string{"a", "z1", "b", "z2", "c"} {
		p, err := m.Start(n, "t1-plain")
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(n, "z") {
			zombies = append(zombies, p)
		}
	}
	m.Run(10)
	for _, z := range zombies {
		if err := m.K.Exit(z, 0); err != nil {
			t.Fatal(err)
		}
	}
	out := recoverOutcome(t, m)
	if len(out.Report.Candidates) != 3 {
		t.Fatalf("candidates = %v", out.Report.Candidates)
	}
	for _, c := range out.Report.Candidates {
		if strings.HasPrefix(c.Name, "z") {
			t.Fatalf("zombie %q listed as candidate", c.Name)
		}
	}
	if got := out.Report.Succeeded(); got != 3 {
		t.Fatalf("succeeded = %d, want 3", got)
	}
}
