package kernel

import (
	"testing"

	"otherworld/internal/hw"
	"otherworld/internal/phys"
)

func TestOopsFirstPanicWins(t *testing.T) {
	k := bootTestKernel(t, nil)
	err1 := k.InjectOops("first")
	err2 := k.InjectOops("second")
	if err1 != err2 {
		t.Fatal("second panic should return the first event")
	}
	if k.Panicked().Reason != "first" {
		t.Fatalf("reason = %q", k.Panicked().Reason)
	}
	if !IsPanic(err1) {
		t.Fatal("IsPanic false")
	}
}

func TestTransferCleanPanicSucceeds(t *testing.T) {
	k := bootTestKernel(t, nil)
	if err := k.LoadCrashImage(); err != nil {
		t.Fatal(err)
	}
	p, _ := k.CreateProcess("a", "test-prog")
	k.M.CPUs[0].CurrentPID = p.PID
	_ = k.InjectOops("clean")
	out := k.AttemptTransfer()
	if !out.OK {
		t.Fatalf("transfer failed: %s", out.Reason)
	}
	// The context must have been saved by the halt protocol.
	if !p.Ctx.Saved {
		t.Fatal("context not saved")
	}
}

func TestTransferWithoutCrashImageFails(t *testing.T) {
	k := bootTestKernel(t, nil)
	_ = k.InjectOops("no image loaded")
	out := k.AttemptTransfer()
	if out.OK {
		t.Fatal("transfer without a crash image must fail")
	}
}

func TestTransferRequiresPanic(t *testing.T) {
	k := bootTestKernel(t, nil)
	if out := k.AttemptTransfer(); out.OK {
		t.Fatal("transfer without a panic must fail")
	}
}

func TestHangNeedsWatchdog(t *testing.T) {
	for _, watchdog := range []bool{true, false} {
		k := bootTestKernel(t, func(p *Params) {
			p.Hardening.WatchdogNMI = watchdog
		})
		if err := k.LoadCrashImage(); err != nil {
			t.Fatal(err)
		}
		_ = k.raise(PanicHang, "wedged")
		out := k.AttemptTransfer()
		if out.OK != watchdog {
			t.Fatalf("watchdog=%v: transfer ok=%v (%s)", watchdog, out.OK, out.Reason)
		}
	}
}

func TestDoubleFaultNeedsHandlerFix(t *testing.T) {
	for _, fixed := range []bool{true, false} {
		k := bootTestKernel(t, func(p *Params) {
			p.Hardening.DoubleFaultMicroreboot = fixed
		})
		if err := k.LoadCrashImage(); err != nil {
			t.Fatal(err)
		}
		_ = k.raise(PanicDoubleFault, "df")
		out := k.AttemptTransfer()
		if out.OK != fixed {
			t.Fatalf("fix=%v: transfer ok=%v (%s)", fixed, out.OK, out.Reason)
		}
	}
}

func TestTransferFailsOnCorruptKexecGate(t *testing.T) {
	k := bootTestKernel(t, nil)
	if err := k.LoadCrashImage(); err != nil {
		t.Fatal(err)
	}
	// Smash the kexec IDT gate.
	addr := hw.IDTAddr + uint64(hw.VecKexec)*16
	if err := k.M.Mem.WriteAt(addr, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = k.InjectOops("x")
	out := k.AttemptTransfer()
	if out.OK {
		t.Fatal("transfer should fail on a corrupt kexec gate")
	}
}

func TestTransferFailsOnCorruptTransferStub(t *testing.T) {
	k := bootTestKernel(t, nil)
	if err := k.LoadCrashImage(); err != nil {
		t.Fatal(err)
	}
	// Corrupt many stub bytes so the non-benign roll is certain.
	f := k.Text.Func(FuncTransferStub)
	for i := 0; i < f.Len; i++ {
		if _, err := k.Text.CorruptByte(f.Start+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	_ = k.InjectOops("x")
	out := k.AttemptTransfer()
	if out.OK {
		t.Fatal("transfer should fail with a fully corrupted stub")
	}
}

func TestPreHardeningStackPrintRecursion(t *testing.T) {
	// Pre-hardening, a corrupted stack recurses the panic path with a few
	// percent probability per crash; over many seeds it must fire at
	// least once. With the fix it must never fire.
	recursed := 0
	for seed := int64(0); seed < 200; seed++ {
		k := bootTestKernel(t, func(p *Params) {
			p.Hardening.NoStackPrintRecursion = false
			p.Seed = seed
		})
		if err := k.LoadCrashImage(); err != nil {
			t.Fatal(err)
		}
		p, _ := k.CreateProcess("a", "test-prog")
		k.M.CPUs[0].CurrentPID = p.PID
		// Corrupt deep scratch: harmless with hardening, sometimes fatal
		// without.
		if err := k.M.Mem.WriteAt(p.D.KStack+3000, []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
		_ = k.InjectOops("x")
		if out := k.AttemptTransfer(); !out.OK {
			recursed++
		}
	}
	if recursed == 0 {
		t.Fatal("pre-hardening panic path never recursed in 200 crashes")
	}
	if recursed > 40 {
		t.Fatalf("recursion rate implausibly high: %d/200", recursed)
	}

	// The same situation always succeeds with the fix.
	k2 := bootTestKernel(t, nil)
	_ = k2.LoadCrashImage()
	p2, _ := k2.CreateProcess("a", "test-prog")
	k2.M.CPUs[0].CurrentPID = p2.PID
	if err := k2.M.Mem.WriteAt(p2.D.KStack+3000, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	_ = k2.InjectOops("x")
	if out := k2.AttemptTransfer(); !out.OK {
		t.Fatalf("hardened transfer failed: %s", out.Reason)
	}
}

func TestCrashImageProtectedFromWildWrites(t *testing.T) {
	k := bootTestKernel(t, nil)
	if err := k.LoadCrashImage(); err != nil {
		t.Fatal(err)
	}
	img := k.P.CrashRegion
	// Direct stores into the image trap (ProtectionFault).
	err := k.M.Mem.WriteAt(phys.FrameAddr(img.Start)+100, []byte{1})
	if err == nil {
		t.Fatal("store into protected image should trap")
	}
	if !k.crashImageIntact() {
		t.Fatal("image must remain intact")
	}
}

func TestWildWriteTrappedByUserProtection(t *testing.T) {
	trapped, landed := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		k := bootTestKernel(t, func(p *Params) {
			p.UserSpaceProtection = true
			p.Seed = seed
		})
		p, _ := k.CreateProcess("a", "test-prog")
		env := &Env{K: k, P: p}
		_ = env.MapAnon(0x100000, 1<<20, 3)
		for i := 0; i < 64; i++ {
			_ = env.Write(0x100000+uint64(i)*4096, []byte{1})
		}
		k.wildWrite()
		trapped += int(k.Perf.WildWritesTrapped)
		landed += int(k.Perf.WildWritesLanded)
	}
	if trapped == 0 {
		t.Fatal("protection never trapped a biased wild write")
	}
}

func TestSettleStopsRepeatedSilentWrites(t *testing.T) {
	k := bootTestKernel(t, nil)
	p, _ := k.CreateProcess("a", "test-prog")
	// Force a decided silent-wild-write byte in the scheduler.
	f := k.Text.Func(FuncSched)
	addr, err := k.Text.CorruptByte(f.Start+5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.Text.decided == nil {
		k.Text.decided = make(map[uint64]Misbehavior)
	}
	k.Text.decided[addr] = BehaveWildWriteSilent
	before := k.Perf.WildWrites
	if got := k.executeKernelFunc(FuncSched, p); got != BehaveBenign {
		t.Fatalf("silent write should continue, got %v", got)
	}
	if k.Perf.WildWrites != before+1 {
		t.Fatal("wild write not performed")
	}
	// Re-execution must not generate new wild writes.
	_ = k.executeKernelFunc(FuncSched, p)
	_ = k.executeKernelFunc(FuncSched, p)
	if k.Perf.WildWrites != before+1 {
		t.Fatalf("settled byte kept writing: %d", k.Perf.WildWrites-before)
	}
}
