package resurrect_test

import (
	"strings"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/resurrect"
)

// Test programs covering the Table 1 quadrants.

// plainProg uses only resurrectable resources (anonymous memory).
type plainProg struct{}

const plainVA = 0x40000

func (plainProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(plainVA, 4096, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	return env.WriteU64(plainVA, 0)
}

func (plainProg) Step(env *kernel.Env) error {
	v, err := env.ReadU64(plainVA)
	if err != nil {
		return err
	}
	return env.WriteU64(plainVA, v+1)
}

// sockProg additionally holds a socket — an unresurrectable resource.
type sockProg struct{ plainProg }

func (s sockProg) Boot(env *kernel.Env) error {
	if err := s.plainProg.Boot(env); err != nil {
		return err
	}
	return env.SockOpen(1, layout.ProtoTCP, 9999)
}

// crashProcState records what the registered crash procedures observed.
var crashProcState struct {
	called  int
	missing kernel.ResourceMask
	action  kernel.CrashAction
}

func trackingCrashProc(env *kernel.Env, missing kernel.ResourceMask) (kernel.CrashAction, error) {
	crashProcState.called++
	crashProcState.missing = missing
	return crashProcState.action, nil
}

func init() {
	kernel.RegisterProgram("t1-plain", func() kernel.Program { return plainProg{} })
	kernel.RegisterProgram("t1-plain-cp", func() kernel.Program { return plainProg{} })
	kernel.RegisterProgram("t1-sock", func() kernel.Program { return sockProg{} })
	kernel.RegisterProgram("t1-sock-cp", func() kernel.Program { return sockProg{} })
	kernel.RegisterCrashProc("t1-tracker", trackingCrashProc)
}

func newMachine(t *testing.T) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 31
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

// crashAndRecover panics the kernel and runs the microreboot, returning the
// single process's report.
func crashAndRecover(t *testing.T, m *core.Machine) resurrect.ProcReport {
	t.Helper()
	if err := m.K.InjectOops("test"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != core.ResultRecovered {
		t.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	if len(out.Report.Procs) != 1 {
		t.Fatalf("reports = %d", len(out.Report.Procs))
	}
	return out.Report.Procs[0]
}

// --- Table 1, quadrant by quadrant ----------------------------------------

func TestTable1_AllResources_NoCrashProc_Continues(t *testing.T) {
	m := newMachine(t)
	if _, err := m.Start("p", "t1-plain"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeContinued || pr.CrashProcCalled {
		t.Fatalf("outcome %v called=%v", pr.Outcome, pr.CrashProcCalled)
	}
	if pr.Missing != 0 {
		t.Fatalf("missing = %v", pr.Missing)
	}
}

func TestTable1_AllResources_CrashProc_MayContinue(t *testing.T) {
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
	}{action: kernel.ActionContinue}
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeContinued || !pr.CrashProcCalled {
		t.Fatalf("outcome %v called=%v err=%v", pr.Outcome, pr.CrashProcCalled, pr.Err)
	}
	if crashProcState.called != 1 || crashProcState.missing != 0 {
		t.Fatalf("crash proc saw called=%d missing=%v", crashProcState.called, crashProcState.missing)
	}
}

func TestTable1_AllResources_CrashProc_MayRestart(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Start("p", "t1-plain-cp")
	_ = m.K.RegisterCrashProcedure(p, "t1-tracker")
	m.Run(20)
	crashProcState.action = kernel.ActionRestart
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeRestarted {
		t.Fatalf("outcome %v err=%v", pr.Outcome, pr.Err)
	}
	np := m.K.Lookup(pr.NewPID)
	if np == nil || np.Resurrected != 0 {
		t.Fatal("restart should yield a fresh process")
	}
}

func TestTable1_MissingResources_NoCrashProc_Fails(t *testing.T) {
	m := newMachine(t)
	if _, err := m.Start("p", "t1-sock"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeFailed {
		t.Fatalf("outcome %v", pr.Outcome)
	}
	if pr.Missing&kernel.ResSockets == 0 {
		t.Fatalf("missing = %v", pr.Missing)
	}
	if pr.Err == nil || !strings.Contains(pr.Err.Error(), "no crash procedure") {
		t.Fatalf("err = %v", pr.Err)
	}
}

func TestTable1_MissingResources_CrashProc_SeesBitmask(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Start("p", "t1-sock-cp")
	_ = m.K.RegisterCrashProcedure(p, "t1-tracker")
	m.Run(20)
	crashProcState = struct {
		called  int
		missing kernel.ResourceMask
		action  kernel.CrashAction
	}{action: kernel.ActionRestart}
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeRestarted {
		t.Fatalf("outcome %v err=%v", pr.Outcome, pr.Err)
	}
	if crashProcState.missing&kernel.ResSockets == 0 {
		t.Fatalf("crash proc saw missing=%v, want sockets bit", crashProcState.missing)
	}
}

func TestTable1_CrashProcGivesUp(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Start("p", "t1-plain-cp")
	_ = m.K.RegisterCrashProcedure(p, "t1-tracker")
	m.Run(20)
	crashProcState.action = kernel.ActionGiveUp
	pr := crashAndRecover(t, m)
	if pr.Outcome != resurrect.OutcomeGaveUp {
		t.Fatalf("outcome %v", pr.Outcome)
	}
	if len(m.K.Procs()) != 0 {
		t.Fatal("abandoned process should not be running")
	}
}

// --- Corruption and selection ----------------------------------------------

func TestResurrectionFailsOnCorruptDescriptor(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Start("p", "t1-plain")
	m.Run(20)
	// Smash the descriptor record's payload in main-kernel memory.
	if err := m.HW.Mem.WriteAt(p.Addr+10, []byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := m.K.InjectOops("x"); err == nil {
		t.Fatal("no panic")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != core.ResultRecovered {
		t.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	// The corrupted descriptor heads the process list, so the walk finds
	// nothing resurrectable.
	if out.Report.Succeeded() != 0 {
		t.Fatal("corrupt descriptor should not resurrect")
	}
}

func TestResurrectionFailsOnCorruptPageDirectory(t *testing.T) {
	m := newMachine(t)
	p, _ := m.Start("p", "t1-plain")
	m.Run(20)
	// Point a directory entry at a non-aligned garbage address.
	if err := m.HW.Mem.WriteU64(p.D.PageDir, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatal(err)
	}
	if out.Result != core.ResultRecovered {
		t.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	pr := out.Report.Procs[0]
	if pr.Outcome != resurrect.OutcomeFailed {
		t.Fatalf("outcome %v", pr.Outcome)
	}
}

func TestResurrectionConfigSelectsByName(t *testing.T) {
	m := newMachine(t)
	_ = m // the default machine resurrects everything; build one with names
	m2opts := core.DefaultOptions()
	m2opts.HW.MemoryBytes = 128 << 20
	m2opts.Seed = 32
	m2opts.Resurrection = resurrect.Config{Names: []string{"keep"}}
	m2, err := core.NewMachine(m2opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Start("keep", "t1-plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Start("drop", "t1-plain"); err != nil {
		t.Fatal(err)
	}
	m2.Run(20)
	_ = m2.K.InjectOops("x")
	out, err := m2.HandleFailure()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Report.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(out.Report.Candidates))
	}
	if len(out.Report.Procs) != 1 || out.Report.Procs[0].Candidate.Name != "keep" {
		t.Fatalf("resurrected %v", out.Report.Procs)
	}
	// Only "keep" runs under the new kernel; "drop" was not resurrected.
	if got := len(m2.K.Procs()); got != 1 {
		t.Fatalf("live procs = %d", got)
	}
}

func TestAccountingCountsKernelData(t *testing.T) {
	m := newMachine(t)
	if _, err := m.Start("p", "t1-plain"); err != nil {
		t.Fatal(err)
	}
	m.Run(40)
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatal(err)
	}
	acct := out.Report.Acct
	if acct.KernelDataBytes() <= 0 {
		t.Fatal("no kernel data counted")
	}
	frac := acct.PageTableFraction()
	if frac <= 0 || frac >= 1 {
		t.Fatalf("page-table fraction = %v", frac)
	}
	if acct.ByCategory[resurrect.CatProc] == 0 || acct.ByCategory[resurrect.CatContext] == 0 {
		t.Fatalf("categories missing: %+v", acct.ByCategory)
	}
}

func TestZombiesNotListedAsCandidates(t *testing.T) {
	m := newMachine(t)
	p1, _ := m.Start("alive", "t1-plain")
	p2, _ := m.Start("dead", "t1-plain")
	_ = p1
	m.Run(10)
	if err := m.K.Exit(p2, 0); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Report.Candidates) != 1 || out.Report.Candidates[0].Name != "alive" {
		t.Fatalf("candidates = %v", out.Report.Candidates)
	}
}
