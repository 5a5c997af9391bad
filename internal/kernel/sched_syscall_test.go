package kernel

import (
	"errors"
	"testing"

	"otherworld/internal/layout"
)

// stepCounter counts its own steps via memory, and can be told to fail.
type stepCounter struct{ failAt uint64 }

const scVA = 0x100000

func (s stepCounter) Boot(env *Env) error {
	if err := env.MapAnon(scVA, 4096, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	return nil
}

func (s stepCounter) Step(env *Env) error {
	v, err := env.ReadU64(scVA)
	if err != nil {
		return err
	}
	if s.failAt != 0 && v+1 >= s.failAt {
		return errors.New("fatal application error")
	}
	return env.WriteU64(scVA, v+1)
}

func init() {
	RegisterProgram("step-counter", func() Program { return stepCounter{} })
	RegisterProgram("step-counter-fail", func() Program { return stepCounter{failAt: 5} })
}

func TestRunRoundRobinFairness(t *testing.T) {
	k := bootTestKernel(t, nil)
	p1, _ := k.CreateProcess("a", "step-counter")
	p2, _ := k.CreateProcess("b", "step-counter")
	res := k.Run(100)
	if res.Panic != nil {
		t.Fatalf("panic: %v", res.Panic)
	}
	env1 := &Env{K: k, P: p1}
	env2 := &Env{K: k, P: p2}
	v1, _ := env1.ReadU64(scVA)
	v2, _ := env2.ReadU64(scVA)
	if v1 != 50 || v2 != 50 {
		t.Fatalf("steps split %d/%d, want 50/50", v1, v2)
	}
	if p1.Ctx.PC != 50 || p2.Ctx.PC != 50 {
		t.Fatalf("PCs %d/%d", p1.Ctx.PC, p2.Ctx.PC)
	}
}

func TestRunKillsFaultingProcess(t *testing.T) {
	k := bootTestKernel(t, nil)
	_, _ = k.CreateProcess("bad", "step-counter-fail")
	good, _ := k.CreateProcess("good", "step-counter")
	res := k.Run(60)
	if res.Panic != nil {
		t.Fatalf("panic: %v", res.Panic)
	}
	if len(k.Procs()) != 1 || k.Procs()[0] != good {
		t.Fatal("faulting process should have been killed, good one kept")
	}
}

func TestRunGoesIdleWhenAllYield(t *testing.T) {
	k := bootTestKernel(t, nil)
	_, _ = k.CreateProcess("idle", "test-prog") // always yields
	res := k.Run(1000)
	if !res.Idle {
		t.Fatal("scheduler should report idle")
	}
	if res.Steps >= 1000 {
		t.Fatal("idle detection should stop early")
	}
}

func TestRunStopsOnPanic(t *testing.T) {
	k := bootTestKernel(t, nil)
	_, _ = k.CreateProcess("a", "step-counter")
	// Fully corrupt the scheduler text so the first step manifests.
	f := k.Text.Func(FuncSched)
	for i := 0; i < 256; i++ {
		_, _ = k.Text.CorruptByte(f.Start+i, 3)
	}
	res := k.Run(100)
	if res.Panic == nil {
		t.Fatal("expected a panic from corrupted scheduler text")
	}
	if k.Panicked() == nil {
		t.Fatal("panic state not latched")
	}
	// Further stepping refuses to run.
	if err := k.StepProcess(k.Procs()[0]); !IsPanic(err) {
		t.Fatalf("step after panic: %v", err)
	}
}

func TestSyscallGateChargesProtectionCosts(t *testing.T) {
	run := func(protect bool) (flushes, switches uint64) {
		k := bootTestKernel(t, func(p *Params) { p.UserSpaceProtection = protect })
		env := envFor(t, k)
		base := k.M.TLB.Flushes
		for i := 0; i < 10; i++ {
			fd, err := env.Open("/f", layout.FlagWrite|layout.FlagCreate)
			if err != nil {
				t.Fatal(err)
			}
			if err := env.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
		return k.M.TLB.Flushes - base, k.Perf.PTSwitches
	}
	f0, s0 := run(false)
	f1, s1 := run(true)
	if f0 != 0 || s0 != 0 {
		t.Fatalf("unprotected mode flushed: %d/%d", f0, s0)
	}
	// 20 syscalls × 2 switches each.
	if f1 != 40 || s1 != 40 {
		t.Fatalf("protected mode flushes/switches = %d/%d, want 40/40", f1, s1)
	}
}

func TestSyscallSavesContextWithNumber(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	fd, err := env.Open("/f", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	_ = fd
	// The last syscall's context is on the kernel stack with InSyscall
	// cleared (it completed).
	ctx, ok, err := layout.ReadContext(k.M.Mem, env.P.D.KStack)
	if err != nil || !ok {
		t.Fatalf("context: ok=%v err=%v", ok, err)
	}
	if ctx.InSyscall {
		t.Fatal("completed syscall left InSyscall set")
	}
	if ctx.SyscallNo != SysNoOpen {
		t.Fatalf("syscall number = %d, want %d", ctx.SyscallNo, SysNoOpen)
	}
}

func TestStackLiveWindowConsumption(t *testing.T) {
	// A corrupted int in the live window manifests on the next syscall
	// with some probability; with enough trials it must fire at least
	// once, and the window is repaired afterwards.
	fired := false
	for seed := int64(0); seed < 20 && !fired; seed++ {
		k := bootTestKernel(t, func(p *Params) { p.Seed = seed })
		env := envFor(t, k)
		if err := k.M.Mem.WriteAt(env.P.D.KStack+uint64(kstackScratchStart)+16, []byte{0xEE, 0xEE, 0xEE, 0xEE}); err != nil {
			t.Fatal(err)
		}
		_, err := env.Open("/f", layout.FlagWrite|layout.FlagCreate)
		if IsPanic(err) {
			fired = true
		}
		// Whether or not it fired, the window must be pristine again.
		if _, ok := k.stackRangeIntact(env.P.D.KStack, kstackScratchStart, kstackLiveEnd); !ok {
			t.Fatal("live window not repaired after consumption")
		}
	}
	if !fired {
		t.Fatal("corrupted stack local never manifested in 20 seeds")
	}
}

func TestPerfCountersAdvance(t *testing.T) {
	k := bootTestKernel(t, nil)
	_, _ = k.CreateProcess("a", "step-counter")
	k.Run(50)
	if k.Perf.Steps != 50 || k.Perf.Cycles == 0 || k.Perf.MemAccesses == 0 {
		t.Fatalf("perf = %+v", k.Perf)
	}
}
