package faultinject

import (
	"testing"

	"otherworld/internal/disk"
	"otherworld/internal/fs"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// idleProg provides kernel stacks to corrupt.
type idleProg struct{}

func (idleProg) Boot(env *kernel.Env) error {
	return env.MapAnon(0x100000, 4096, layout.ProtRead|layout.ProtWrite)
}
func (idleProg) Step(env *kernel.Env) error { return kernel.ErrYield }

func init() {
	kernel.RegisterProgram("fi-idle", func() kernel.Program { return idleProg{} })
}

func bootKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemoryBytes: 64 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true})
	m.Bus.Attach(disk.NewBlockDevice("/dev/swap0", 1024))
	crash := phys.Region{Start: m.Mem.NumFrames() - 512, Frames: 512}
	k, err := kernel.Boot(m, fs.New(), kernel.Params{
		VerifyCRC:   true,
		Hardening:   kernel.FullHardening(),
		SwapDevice:  "/dev/swap0",
		CrashRegion: crash,
		Seed:        1,
	}, kernel.BootOptions{Region: phys.Region{Start: 0, Frames: crash.Start}})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestInjectBurstClassMix(t *testing.T) {
	k := bootKernel(t)
	if _, err := k.CreateProcess("a", "fi-idle"); err != nil {
		t.Fatal(err)
	}
	in := New(42)
	faults, err := in.InjectBurst(k, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 300 {
		t.Fatalf("faults = %d", len(faults))
	}
	byClass := map[Class]int{}
	for _, f := range faults {
		byClass[f.Class]++
	}
	// The split is 50% stack / 30% instruction / 20% operand.
	if byClass[ClassStackInt] < 100 || byClass[ClassStackInt] > 200 {
		t.Fatalf("stack faults = %d", byClass[ClassStackInt])
	}
	if byClass[ClassTextInstr] == 0 || byClass[ClassTextOperand] == 0 {
		t.Fatalf("class mix = %v", byClass)
	}
}

func TestStackFaultsHitLiveStacks(t *testing.T) {
	k := bootKernel(t)
	p, _ := k.CreateProcess("a", "fi-idle")
	in := New(7)
	for i := 0; i < 200; i++ {
		f, err := in.InjectOne(k)
		if err != nil {
			t.Fatal(err)
		}
		if f.Class != ClassStackInt {
			continue
		}
		if f.PID != p.PID {
			t.Fatalf("stack fault hit pid %d", f.PID)
		}
		if phys.FrameOf(f.Addr) != phys.FrameOf(p.D.KStack) {
			t.Fatalf("stack fault at %#x outside kstack %#x", f.Addr, p.D.KStack)
		}
	}
}

func TestTextFaultsLandInTextRegion(t *testing.T) {
	k := bootKernel(t)
	in := New(9)
	for i := 0; i < 200; i++ {
		f, err := in.InjectOne(k)
		if err != nil {
			t.Fatal(err)
		}
		if f.Class == ClassStackInt {
			continue
		}
		if !k.Text.Contains(f.Addr) {
			t.Fatalf("text fault at %#x outside text region", f.Addr)
		}
	}
}

func TestInjectionNeverTouchesCrashImage(t *testing.T) {
	k := bootKernel(t)
	if err := k.LoadCrashImage(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateProcess("a", "fi-idle"); err != nil {
		t.Fatal(err)
	}
	in := New(11)
	faults, err := in.InjectBurst(k, 500)
	if err != nil {
		t.Fatal(err)
	}
	img := k.P.CrashRegion
	for _, f := range faults {
		if img.ContainsAddr(f.Addr) {
			t.Fatalf("fault at %#x inside the protected crash image", f.Addr)
		}
	}
}

func TestInjectionDeterministic(t *testing.T) {
	k1 := bootKernel(t)
	k2 := bootKernel(t)
	_, _ = k1.CreateProcess("a", "fi-idle")
	_, _ = k2.CreateProcess("a", "fi-idle")
	f1, err1 := New(123).InjectBurst(k1, 50)
	f2, err2 := New(123).InjectBurst(k2, 50)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, f1[i], f2[i])
		}
	}
}

func TestFaultsWithoutProcessesFallBackToText(t *testing.T) {
	k := bootKernel(t)
	in := New(5)
	f, err := in.InjectOne(k)
	if err != nil {
		t.Fatal(err)
	}
	if f.Class == ClassStackInt {
		t.Fatal("no stacks exist; fault should target text")
	}
}
