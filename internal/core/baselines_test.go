package core

import (
	"testing"
	"time"

	_ "otherworld/internal/apps" // register the paper's applications

	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/sim"
)

// lockPipeRecord flips the Locked flag on the first process's pipe record,
// simulating a crash mid-PipeWrite.
func lockPipeRecord(t *testing.T, m *Machine) {
	t.Helper()
	p := m.K.Procs()[0]
	var rec layout.Pipe
	var buf []byte
	if err := rec.Read(m.HW.Mem, p.D.Pipes, true, &buf); err != nil {
		t.Fatal(err)
	}
	rec.Locked = true
	if err := m.HW.Mem.WriteAt(p.D.Pipes, rec.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
}

func TestHotUpdatePreservesProcesses(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("counter", "counter")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(200)
	env := &kernel.Env{K: m.K, P: p}
	before, _ := env.ReadU64(counterVA)
	bootBefore := m.K.Globals.BootCount

	out, err := m.HotUpdate()
	if err != nil {
		t.Fatalf("HotUpdate: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("hot update failed: %s", out.Transfer.Reason)
	}
	if m.K.Globals.BootCount != bootBefore+1 {
		t.Fatalf("boot count %d -> %d", bootBefore, m.K.Globals.BootCount)
	}
	np := m.K.Lookup(out.Report.Procs[0].NewPID)
	env = &kernel.Env{K: m.K, P: np}
	after, _ := env.ReadU64(counterVA)
	if after != before {
		t.Fatalf("counter %d -> %d across hot update", before, after)
	}
	// The updated kernel runs the workload onward.
	m.Run(100)
	final, _ := env.ReadU64(counterVA)
	if final <= after {
		t.Fatal("no progress after hot update")
	}
	// A healthy machine refuses a second HotUpdate mid-failure only.
	if _, err := m.HotUpdate(); err != nil {
		t.Fatalf("second hot update: %v", err)
	}
}

// TestFastCrashBootShrinksInterruption: the Section 7 initialization
// optimizations save exactly the crash kernel's extra startup work, two
// thirds of its kernel init and the probes of re-probeable devices.
func TestFastCrashBootShrinksInterruption(t *testing.T) {
	measure := func(fast bool) time.Duration {
		m := newTestMachine(t, func(o *Options) { o.FastCrashBoot = fast })
		_, _ = m.Start("counter", "counter")
		m.Run(20)
		_ = m.K.InjectOops("x")
		out, err := m.HandleFailure()
		if err != nil || out.Result != ResultRecovered {
			t.Fatalf("recover: %v %v", out, err)
		}
		return out.Interruption
	}
	slow := measure(false)
	fast := measure(true)
	c := sim.DefaultCostModel()
	devs := hw.DefaultDevices()
	want := c.CrashExtra + c.KernelInit - c.KernelInit/3 + hw.ProbeAll(devs) - hw.ProbeChangedOnly(devs)
	if slow-fast != want {
		t.Fatalf("fast boot %v, stock %v: saved %v, want %v", fast, slow, slow-fast, want)
	}
}

func TestKDumpBaselineCapturesAndLosesState(t *testing.T) {
	m := newTestMachine(t, nil)
	_, err := m.Start("counter", "counter")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailureKDump("/var/crash/vmcore")
	if err != nil {
		t.Fatalf("kdump: %v", err)
	}
	if out.Transfer != ResultRecovered {
		t.Fatal("capture kernel should have booted")
	}
	if out.DumpBytes == 0 {
		t.Fatal("no dump written")
	}
	size, err := m.FS.Size("/var/crash/vmcore")
	if err != nil || size != out.DumpBytes {
		t.Fatalf("dump on disk: %d vs %d (%v)", size, out.DumpBytes, err)
	}
	// The defining difference from Otherworld: the application is gone.
	if len(m.K.Procs()) != 0 {
		t.Fatal("kdump baseline must not preserve processes")
	}
	// And the interruption includes a full cold boot.
	if out.Interruption.Seconds() < 60 {
		t.Fatalf("kdump interruption = %vs, should include a cold boot", out.Interruption.Seconds())
	}
}

func TestKDumpRequiresFailure(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.HandleFailureKDump("/d"); err == nil {
		t.Fatal("kdump without a failure should error")
	}
}

// TestResurrectIPCVolano: with the Section 7 extension, the socket-holding
// Volano server survives a microreboot without any crash procedure — the
// case the prototype could not handle.
func TestResurrectIPCVolano(t *testing.T) {
	m := newTestMachine(t, func(o *Options) { o.ResurrectIPC = true })
	if _, err := m.Start("volano", "volano"); err != nil {
		t.Fatal(err)
	}
	// Serve a message so the socket has live state.
	var acks int
	m.Net.OnRemote(5566, func(p []byte) { acks++ })
	m.Net.Deliver(5566, []byte("M 1 2 hi"))
	m.Run(50)
	if acks == 0 {
		t.Fatal("no traffic served before crash")
	}

	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	pr := out.Report.Procs[0]
	if pr.Err != nil || pr.Missing&kernel.ResSockets != 0 {
		t.Fatalf("socket resurrection failed: %v missing=%v", pr.Err, pr.Missing)
	}
	if pr.Outcome.String() != "continued" {
		t.Fatalf("outcome = %v", pr.Outcome)
	}
	// The resurrected server keeps serving on the rebound socket.
	m.Net.Deliver(5566, []byte("M 2 2 again"))
	m.Run(50)
	if acks < 2*5 { // fanout 4 + ack, twice
		t.Fatalf("server not serving after socket resurrection: %d responses", acks)
	}
}

// pipeProg holds an idle (unlocked) pipe with buffered data.
type pipeProg struct{}

func (pipeProg) Boot(env *kernel.Env) error {
	if err := env.PipeOpen(1, 0); err != nil {
		return err
	}
	_, err := env.PipeWrite(1, []byte("buffered-in-pipe"))
	return err
}
func (pipeProg) Step(env *kernel.Env) error { return kernel.ErrYield }

func init() {
	kernel.RegisterProgram("pipe-prog", func() kernel.Program { return pipeProg{} })
}

// TestResurrectIPCPipe: buffered pipe bytes survive when the pipe was
// unlocked at failure time; a locked pipe is refused (Section 3.3).
func TestResurrectIPCPipe(t *testing.T) {
	m := newTestMachine(t, func(o *Options) { o.ResurrectIPC = true })
	p, err := m.Start("piper", "pipe-prog")
	if err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	pr := out.Report.Procs[0]
	if pr.Err != nil || pr.Missing != 0 {
		t.Fatalf("pipe resurrection: err=%v missing=%v", pr.Err, pr.Missing)
	}
	np := m.K.Lookup(pr.NewPID)
	env := &kernel.Env{K: m.K, P: np}
	buf := make([]byte, 16)
	n, err := env.PipeRead(1, buf)
	if err != nil || string(buf[:n]) != "buffered-in-pipe" {
		t.Fatalf("pipe contents: %q %v", buf[:n], err)
	}

	// Now the locked case: mark the pipe locked in kernel memory before
	// the crash; resurrection must refuse it.
	m2 := newTestMachine(t, func(o *Options) { o.ResurrectIPC = true })
	p, err = m2.Start("piper", "pipe-prog")
	if err != nil {
		t.Fatal(err)
	}
	// Reach into the record and set Locked, as a crash mid-PipeWrite
	// would leave it.
	_ = p
	lockPipeRecord(t, m2)
	_ = m2.K.InjectOops("x")
	out, err = m2.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	pr = out.Report.Procs[0]
	if pr.Missing&kernel.ResPipes == 0 {
		t.Fatalf("locked pipe should be reported missing, got %v (err %v)", pr.Missing, pr.Err)
	}
}

// TestIsCrashKernelQuery: Section 3.2's init-script query — true only
// between the crash-kernel boot and the morph.
func TestIsCrashKernelQuery(t *testing.T) {
	m := newTestMachine(t, nil)
	if m.K.IsCrashKernel() {
		t.Fatal("cold-booted kernel is the main kernel")
	}
	_, _ = m.Start("c", "counter")
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	// By the time HandleFailure returns, the crash kernel has morphed.
	if m.K.IsCrashKernel() {
		t.Fatal("morphed kernel must identify as the main kernel")
	}
	if m.K.Globals.BootCount != 1 {
		t.Fatalf("boot count = %d", m.K.Globals.BootCount)
	}
}
