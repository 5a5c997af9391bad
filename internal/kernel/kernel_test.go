package kernel

import (
	"testing"

	"otherworld/internal/disk"
	"otherworld/internal/fs"
	"otherworld/internal/hw"
	"otherworld/internal/phys"
)

// testProg is a trivial registered program for kernel-level tests.
type testProg struct{}

func (testProg) Boot(env *Env) error      { return nil }
func (testProg) Step(env *Env) error      { return ErrYield }
func (testProg) Rehydrate(env *Env) error { return nil }

func init() {
	RegisterProgram("test-prog", func() Program { return testProg{} })
}

// bootTestKernel brings up a kernel on a small machine with one swap
// partition and the whole of memory except a top reservation.
func bootTestKernel(t testing.TB, mutate func(*Params)) *Kernel {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemoryBytes: 64 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true})
	m.Bus.Attach(disk.NewBlockDevice("/dev/swap0", 2048))
	m.Bus.Attach(disk.NewBlockDevice("/dev/swap1", 2048))
	crash := phys.Region{Start: m.Mem.NumFrames() - 1024, Frames: 1024}
	p := Params{
		VerifyCRC:   true,
		Hardening:   FullHardening(),
		SwapDevice:  "/dev/swap0",
		CrashRegion: crash,
		Seed:        99,
	}
	if mutate != nil {
		mutate(&p)
	}
	k, err := Boot(m, fs.New(), p, BootOptions{Region: phys.Region{Start: 0, Frames: crash.Start}})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return k
}

func TestBootWritesGlobalsAtFixedAnchor(t *testing.T) {
	k := bootTestKernel(t, nil)
	if k.GlobalsAnchor() != GlobalsAddr {
		t.Fatalf("anchor = %#x", k.GlobalsAnchor())
	}
	g, err := readGlobalsRaw(k)
	if err != nil {
		t.Fatal(err)
	}
	if g.Version != 1 || g.ProcListHead != 0 {
		t.Fatalf("globals = %+v", g)
	}
}

func readGlobalsRaw(k *Kernel) (*gRaw, error) {
	g, err := readGlobals(k)
	return g, err
}

type gRaw = struct {
	Version      uint32
	BootCount    uint32
	ProcListHead uint64
	SwapTable    uint64
	NextPID      uint32
	CrashRegionStart,
	CrashRegionFrames,
	HeapStart,
	HeapFrames uint64
}

func readGlobals(k *Kernel) (*gRaw, error) {
	// Re-read through the public layout path to prove the bytes in memory
	// are authoritative.
	g := k.Globals
	return &gRaw{
		Version: g.Version, BootCount: g.BootCount, ProcListHead: g.ProcListHead,
		SwapTable: g.SwapTable, NextPID: g.NextPID,
		CrashRegionStart: g.CrashRegionStart, CrashRegionFrames: g.CrashRegionFrames,
		HeapStart: g.HeapStart, HeapFrames: g.HeapFrames,
	}, nil
}

func TestCreateProcessLinksList(t *testing.T) {
	k := bootTestKernel(t, nil)
	p1, err := k.CreateProcess("a", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.CreateProcess("b", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	if k.Globals.ProcListHead != p2.Addr {
		t.Fatal("new process should head the list")
	}
	if p2.D.Next != p1.Addr {
		t.Fatal("list not linked")
	}
	if got := len(k.Procs()); got != 2 {
		t.Fatalf("procs = %d", got)
	}
	if k.Lookup(p1.PID) != p1 || k.Lookup(999) != nil {
		t.Fatal("Lookup wrong")
	}
}

func TestCreateProcessUnknownProgram(t *testing.T) {
	k := bootTestKernel(t, nil)
	if _, err := k.CreateProcess("x", "no-such-program"); err == nil {
		t.Fatal("unknown program should fail")
	}
}

func TestExitUnlinksMiddleOfList(t *testing.T) {
	k := bootTestKernel(t, nil)
	p1, _ := k.CreateProcess("a", "test-prog")
	p2, _ := k.CreateProcess("b", "test-prog")
	p3, _ := k.CreateProcess("c", "test-prog")
	if err := k.Exit(p2, 0); err != nil {
		t.Fatal(err)
	}
	// List: p3 -> p1.
	if k.Globals.ProcListHead != p3.Addr {
		t.Fatal("head moved unexpectedly")
	}
	d, err := k.readProcRecord(p3.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if d.Next != p1.Addr {
		t.Fatalf("p3.Next = %#x, want %#x", d.Next, p1.Addr)
	}
	if len(k.Procs()) != 2 {
		t.Fatalf("procs = %d", len(k.Procs()))
	}
	// Head removal too.
	if err := k.Exit(p3, 0); err != nil {
		t.Fatal(err)
	}
	if k.Globals.ProcListHead != p1.Addr {
		t.Fatal("head not updated")
	}
}

func TestHeapAllocFreeReuse(t *testing.T) {
	k := bootTestKernel(t, nil)
	a1, err := k.Heap.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := k.Heap.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("duplicate allocation")
	}
	k.Heap.Free(a1, 100)
	a3, err := k.Heap.Alloc(100)
	if err != nil || a3 != a1 {
		t.Fatalf("size-class reuse failed: %#x vs %#x (%v)", a3, a1, err)
	}
	if _, err := k.Heap.Alloc(phys.PageSize + 1); err == nil {
		t.Fatal("oversized allocation should fail")
	}
}

func TestHeapRecordsNeverSpanFrames(t *testing.T) {
	k := bootTestKernel(t, nil)
	for i := 0; i < 200; i++ {
		addr, err := k.Heap.Alloc(300)
		if err != nil {
			t.Fatal(err)
		}
		if phys.FrameOf(addr) != phys.FrameOf(addr+299) {
			t.Fatalf("allocation at %#x spans frames", addr)
		}
	}
}

func TestTextIntegrityAndCorruption(t *testing.T) {
	k := bootTestKernel(t, nil)
	// Pristine text executes cleanly everywhere.
	for fn := FuncID(0); fn < funcCount; fn++ {
		if b := k.Text.CheckExecute(fn, k.rng.Float64); b != BehaveBenign {
			t.Fatalf("pristine %s misbehaved: %v", funcNames[fn], b)
		}
	}
	// Corrupt the scheduler; repeated executions decide once and stick.
	f := k.Text.Func(FuncSched)
	if _, err := k.Text.CorruptByte(f.Start+10, 1); err != nil {
		t.Fatal(err)
	}
	first := k.Text.CheckExecute(FuncSched, k.rng.Float64)
	for i := 0; i < 5; i++ {
		if got := k.Text.CheckExecute(FuncSched, k.rng.Float64); got != first {
			t.Fatalf("behaviour changed between executions: %v then %v", first, got)
		}
	}
	// Other functions are unaffected.
	if b := k.Text.CheckExecute(FuncTTY, k.rng.Float64); b != BehaveBenign {
		t.Fatalf("tty affected by sched corruption: %v", b)
	}
}

func TestTextFunctionsDisjoint(t *testing.T) {
	k := bootTestKernel(t, nil)
	end := 0
	for fn := FuncID(0); fn < funcCount; fn++ {
		f := k.Text.Func(fn)
		if f.Start < end {
			t.Fatalf("%s overlaps previous function", f.Name)
		}
		end = f.Start + f.Len
	}
	if end > k.Text.Size() {
		t.Fatal("functions exceed text region")
	}
}

func TestKernelStackPatternDetection(t *testing.T) {
	k := bootTestKernel(t, nil)
	p, _ := k.CreateProcess("a", "test-prog")
	if _, ok := k.stackRangeIntact(p.D.KStack, kstackScratchStart, kstackLiveEnd); !ok {
		t.Fatal("fresh stack should be intact")
	}
	if err := k.M.Mem.WriteAt(p.D.KStack+uint64(kstackScratchStart)+7, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	off, ok := k.stackRangeIntact(p.D.KStack, kstackScratchStart, kstackLiveEnd)
	if ok || off != kstackScratchStart+7 {
		t.Fatalf("corruption not located: off=%d ok=%v", off, ok)
	}
	if err := k.fillStackPattern(p.D.KStack, kstackScratchStart, kstackLiveEnd); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.stackRangeIntact(p.D.KStack, kstackScratchStart, kstackLiveEnd); !ok {
		t.Fatal("repair failed")
	}
}
