package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
)

// bigProg touches many pages so some can be swapped out before the crash.
type bigProg struct{}

const (
	bigVA    = 0x800000
	bigPages = 256
)

func (bigProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(bigVA, bigPages*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	for i := 0; i < bigPages; i++ {
		if err := env.WriteU64(bigVA+uint64(i)*phys.PageSize, uint64(i)*7+1); err != nil {
			return err
		}
	}
	return nil
}

func (bigProg) Step(env *kernel.Env) error { return kernel.ErrYield }

// scribeProg writes to a file without ever fsyncing: its data lives only in
// the page cache until the crash kernel's dirty-buffer flush.
type scribeProg struct{}

func (scribeProg) Boot(env *kernel.Env) error {
	fd, err := env.Open("/home/user/draft", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		return err
	}
	_, err = env.WriteFile(fd, []byte("unsynced words of wisdom"))
	return err
}

func (scribeProg) Step(env *kernel.Env) error { return kernel.ErrYield }

// ttyProg paints its terminal.
type ttyProg struct{}

func (ttyProg) Boot(env *kernel.Env) error {
	if err := env.TermOpen(3); err != nil {
		return err
	}
	return env.TermWrite([]byte("SCREEN STATE"))
}

func (ttyProg) Step(env *kernel.Env) error { return kernel.ErrYield }

func init() {
	kernel.RegisterProgram("big-prog", func() kernel.Program { return bigProg{} })
	kernel.RegisterProgram("scribe", func() kernel.Program { return scribeProg{} })
	kernel.RegisterProgram("tty-prog", func() kernel.Program { return ttyProg{} })
}

// TestSwappedPagesRestagedAcrossMicroreboot: pages the main kernel swapped
// out must come back via the crash kernel's partition with contents intact.
func TestSwappedPagesRestagedAcrossMicroreboot(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("big", "big-prog")
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.K.SwapOutPages(p, 64)
	if err != nil || n != 64 {
		t.Fatalf("swap out: %d %v", n, err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	pr := out.Report.Procs[0]
	if pr.PagesRestaged != 64 {
		t.Fatalf("restaged %d pages, want 64", pr.PagesRestaged)
	}
	if pr.PagesCopied != bigPages-64 {
		t.Fatalf("copied %d, want %d", pr.PagesCopied, bigPages-64)
	}
	// Every page readable with original content under the new kernel.
	np := m.K.Lookup(pr.NewPID)
	env := &kernel.Env{K: m.K, P: np}
	for i := 0; i < bigPages; i++ {
		v, err := env.ReadU64(bigVA + uint64(i)*phys.PageSize)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if v != uint64(i)*7+1 {
			t.Fatalf("page %d = %d", i, v)
		}
	}
	// A second microreboot swaps partitions back: restage both ways.
	if _, err := m.K.SwapOutPages(np, 32); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("y")
	out, err = m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("second recover: %v %v", out, err)
	}
	if out.Report.Procs[0].PagesRestaged != 32 {
		t.Fatalf("second restage = %d", out.Report.Procs[0].PagesRestaged)
	}
}

// TestDirtyBuffersFlushedDuringResurrection: buffered writes that never
// reached the disk are flushed by the crash kernel (Section 3.3).
func TestDirtyBuffersFlushedDuringResurrection(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.Start("scribe", "scribe"); err != nil {
		t.Fatal(err)
	}
	onDisk, _ := m.FS.ReadFile("/home/user/draft")
	if len(onDisk) != 0 {
		t.Fatalf("data on disk before fsync: %q", onDisk)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	if out.Report.Procs[0].DirtyFlushed == 0 {
		t.Fatal("no dirty pages flushed")
	}
	onDisk, err = m.FS.ReadFile("/home/user/draft")
	if err != nil || string(onDisk) != "unsynced words of wisdom" {
		t.Fatalf("after resurrection: %q %v", onDisk, err)
	}
}

// TestTerminalScreenSurvives: the physical terminal's screen contents and
// geometry come back (Section 3.3).
func TestTerminalScreenSurvives(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.Start("tty", "tty-prog"); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	np := m.K.Lookup(out.Report.Procs[0].NewPID)
	rows, err := m.K.ScreenContents(np)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(rows[0], []byte("SCREEN STATE")) {
		t.Fatalf("screen row 0 = %q", rows[0][:16])
	}
}

// TestOversizedTerminalGeometryRefused: a CRC-valid terminal record whose
// rows×cols screen outgrows the one frame every kernel gives a screen is
// corrupt. The crash kernel reports the terminal missing (Table 1 then
// applies: with no crash procedure the process fails) instead of restoring
// a 100-row terminal whose screen spills into the frame after its own.
func TestOversizedTerminalGeometryRefused(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("tty", "tty-prog")
	if err != nil {
		t.Fatal(err)
	}
	var rec layout.Terminal
	var buf []byte
	if err := rec.Read(m.HW.Mem, p.D.Terminal, true, &buf); err != nil {
		t.Fatal(err)
	}
	rec.Rows = 100
	if err := m.HW.Mem.WriteAt(p.D.Terminal, rec.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	if pr := out.Report.Procs[0]; pr.Missing&kernel.ResTerminal == 0 {
		t.Fatalf("missing = %v, want the terminal bit", pr.Missing)
	}
	for _, q := range m.K.Procs() {
		if rows, err := m.K.ScreenContents(q); err == nil && len(rows) == 100 {
			t.Fatalf("pid %d has a restored 100-row terminal", q.PID)
		}
	}
}

// TestOpenFileOffsetsSurvive: descriptors come back at the same fd slots
// with the same offsets.
func TestOpenFileOffsetsSurvive(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("c", "counter")
	if err != nil {
		t.Fatal(err)
	}
	env := &kernel.Env{K: m.K, P: p}
	_ = m.FS.WriteFile("/f", []byte("0123456789"))
	fd, err := env.Open("/f", layout.FlagRead)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_, _ = env.ReadFile(fd, buf) // offset now 4
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	np := m.K.Lookup(out.Report.Procs[0].NewPID)
	env2 := &kernel.Env{K: m.K, P: np}
	if n, err := env2.ReadFile(fd, buf); err != nil || n != 4 || string(buf) != "4567" {
		t.Fatalf("resumed read: %d %q %v", n, buf, err)
	}
}

// TestAbortedSyscallFlagSet: a process crashed mid-syscall sees the retry
// flag exactly once (Section 3.5).
func TestAbortedSyscallFlagSet(t *testing.T) {
	m := newTestMachine(t, nil)
	p, _ := m.Start("c", "counter")
	m.Run(10)
	p.Ctx.InSyscall = true
	p.Ctx.SyscallNo = kernel.SysNoRead
	if err := m.K.SaveContextToStack(p); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("mid-syscall")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	np := m.K.Lookup(out.Report.Procs[0].NewPID)
	env := &kernel.Env{K: m.K, P: np}
	if !env.SyscallAborted() {
		t.Fatal("aborted-syscall flag not set")
	}
	if env.SyscallAborted() {
		t.Fatal("flag should clear after reading")
	}
	if np.Resurrected != 1 {
		t.Fatalf("resurrected = %d", np.Resurrected)
	}
}

// TestColdRebootLosesVolatileState: the baseline world — a full reboot
// wipes processes but keeps the file system.
func TestColdRebootLosesVolatileState(t *testing.T) {
	m := newTestMachine(t, nil)
	_, _ = m.Start("c", "counter")
	m.Run(20)
	_ = m.FS.WriteFile("/persists", []byte("disk data"))
	_ = m.K.InjectOops("x")
	// Pretend the transfer failed; cold reboot instead.
	if err := m.ColdReboot(); err != nil {
		t.Fatalf("ColdReboot: %v", err)
	}
	if len(m.K.Procs()) != 0 {
		t.Fatal("processes survived a cold reboot")
	}
	data, err := m.FS.ReadFile("/persists")
	if err != nil || string(data) != "disk data" {
		t.Fatalf("file system lost: %q %v", data, err)
	}
	// The machine works again.
	if _, err := m.Start("c2", "counter"); err != nil {
		t.Fatal(err)
	}
	if res := m.Run(10); res.Panic != nil {
		t.Fatalf("panic after cold reboot: %v", res.Panic)
	}
}

// TestInterruptionTimeCharged: a microreboot costs tens of virtual seconds
// (crash-kernel boot + init), far less than a cold boot with BIOS.
func TestInterruptionTimeCharged(t *testing.T) {
	m := newTestMachine(t, nil)
	_, _ = m.Start("c", "counter")
	m.Run(10)
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	if out.Interruption < 40*time.Second || out.Interruption > 70*time.Second {
		t.Fatalf("interruption = %v", out.Interruption)
	}
	cold := m.Cost().BIOS + m.Cost().BootLoader + m.Cost().KernelInit +
		m.Cost().DriverProbe + m.Cost().FSMount + m.Cost().InitScripts
	if out.Interruption >= cold {
		t.Fatalf("microreboot (%v) should beat cold boot (%v)", out.Interruption, cold)
	}
}

// TestCrashRegionAlternates: consecutive microreboots alternate the two
// reservation slots, and a fresh protected image is always loaded.
func TestCrashRegionAlternates(t *testing.T) {
	m := newTestMachine(t, nil)
	_, _ = m.Start("c", "counter")
	first := m.K.P.CrashRegion
	_ = m.K.InjectOops("x")
	if out, err := m.HandleFailure(); err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	second := m.K.P.CrashRegion
	if first.Start == second.Start {
		t.Fatal("crash region did not alternate")
	}
	// The new image region is protected.
	for f := second.Start; f < second.End(); f++ {
		if !m.HW.Mem.Protected(f) {
			t.Fatalf("frame %d of new image not protected", f)
		}
	}
	m.Run(10)
	_ = m.K.InjectOops("y")
	if out, err := m.HandleFailure(); err != nil || out.Result != ResultRecovered {
		t.Fatalf("second recover: %v %v", out, err)
	}
	third := m.K.P.CrashRegion
	if third.Start != first.Start {
		t.Fatal("slots should alternate back")
	}
}

// ptyProg holds a pseudo terminal, which the prototype cannot resurrect.
type ptyProg struct{}

func (ptyProg) Boot(env *kernel.Env) error {
	if err := env.K.OpenPseudoTerminal(env.P, 9); err != nil {
		return err
	}
	// A real process does kernel work; the mapping syscall also leaves a
	// saved context on the kernel stack.
	return env.MapAnon(0x100000, 4096, layout.ProtRead|layout.ProtWrite)
}
func (ptyProg) Step(env *kernel.Env) error { return kernel.ErrYield }

func init() {
	kernel.RegisterProgram("pty-prog", func() kernel.Program { return ptyProg{} })
}

// TestPseudoTerminalNotResurrected: Section 3.3 — only physical terminals
// are restorable; a pty shows up in the missing-resource bitmask and, with
// no crash procedure, fails the resurrection.
func TestPseudoTerminalNotResurrected(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.Start("ptyuser", "pty-prog"); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	pr := out.Report.Procs[0]
	if pr.Missing&kernel.ResTerminal == 0 {
		t.Fatalf("missing = %v, want terminal bit", pr.Missing)
	}
	if pr.Err == nil {
		t.Fatal("pty holder without crash procedure should fail resurrection")
	}
}

// TestSignalHandlersResurrected: signal handlers are among the state
// Section 3.3 says the crash kernel restores. Handlers set before the crash
// come back in the resurrected process's table, read under the signals
// category. A corrupted table degrades to default handlers: the process
// still continues, and the signals phase records the error.
func TestSignalHandlersResurrected(t *testing.T) {
	handlers := []struct {
		sig int
		h   uint32
	}{{2, 0xcafe}, {15, 0xbeef}}
	for _, corrupt := range []bool{false, true} {
		t.Run(fmt.Sprintf("corrupt=%v", corrupt), func(t *testing.T) {
			m := newTestMachine(t, nil)
			p, err := m.Start("counter", "counter")
			if err != nil {
				t.Fatal(err)
			}
			m.Run(10)
			env := &kernel.Env{K: m.K, P: p}
			for _, sh := range handlers {
				if err := env.SigAction(sh.sig, sh.h); err != nil {
					t.Fatal(err)
				}
			}
			if corrupt {
				addr := p.D.Signals + layout.HeaderSize
				var b [1]byte
				if err := m.HW.Mem.ReadAt(addr, b[:]); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0xff
				if err := m.HW.Mem.WriteAt(addr, b[:]); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.K.InjectOops("x"); err == nil {
				t.Fatal("InjectOops returned nil")
			}
			out, err := m.HandleFailure()
			if err != nil || out.Result != ResultRecovered {
				t.Fatalf("recover: %v %v", out, err)
			}
			pr := out.Report.Procs[0]
			if pr.Outcome != resurrect.OutcomeContinued {
				t.Fatalf("outcome %v (%v), want continued", pr.Outcome, pr.Err)
			}
			var step *resurrect.PhaseStep
			for i := range pr.Timeline {
				if pr.Timeline[i].Phase == resurrect.PhaseSignals {
					step = &pr.Timeline[i]
				}
			}
			if step == nil {
				t.Fatalf("timeline %v has no signals phase", pr.Timeline)
			}
			if n := out.Report.Acct.ByCategory[resurrect.CatSignals]; n == 0 {
				t.Error("nothing read under the signals category")
			}
			np := m.K.Lookup(pr.NewPID)
			if np == nil {
				t.Fatal("resurrected process not found in the new kernel")
			}
			if corrupt {
				if step.Err == "" {
					t.Error("signals phase recorded no error for a corrupted table")
				}
				if np.D.Signals != 0 {
					t.Errorf("signal table at %#x, want default handlers (none)", np.D.Signals)
				}
				return
			}
			if step.Err != "" {
				t.Errorf("signals phase failed: %s", step.Err)
			}
			var tbl layout.Signals
			var buf []byte
			if err := tbl.Read(m.HW.Mem, np.D.Signals, true, &buf); err != nil {
				t.Fatal(err)
			}
			for _, sh := range handlers {
				if got := tbl.Handlers[sh.sig]; got != sh.h {
					t.Errorf("signal %d handler %#x, want %#x", sh.sig, got, sh.h)
				}
			}
		})
	}
}
