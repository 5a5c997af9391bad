package kernel

import (
	"errors"
	"testing"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

func TestAccessPatternBeyondRegionSegfaults(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := env.MapAnon(0x100000, 4*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		t.Fatal(err)
	}
	// Spanning 16 pages over a 4-page region must eventually fault.
	err := env.Access(0x100000, 16, 200)
	if !errors.Is(err, ErrSegfault) {
		t.Fatalf("want segfault, got %v", err)
	}
	// Within bounds it is fine.
	if err := env.Access(0x100000, 4, 200); err != nil {
		t.Fatal(err)
	}
}

var benchErr error

// BenchmarkAccessPattern times AccessPattern over one warmed process with
// MySQL's working set, 70 resident pages against a 64-entry TLB, and 1500
// accesses per op, as one MySQL query makes. Each access walks the page
// table and charges the TLB; every page is resident, so nothing allocates.
func BenchmarkAccessPattern(b *testing.B) {
	const va, pages, accesses = 0x100000, 70, 1500
	k := bootTestKernel(b, nil)
	env := envFor(b, k)
	if err := env.MapAnon(va, pages*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		if err := env.WriteU64(va+i*phys.PageSize, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchErr = k.AccessPattern(env.P, va, pages, accesses)
	}
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

func TestWriteU64AcrossPageBoundary(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := env.MapAnon(0x100000, 2*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		t.Fatal(err)
	}
	va := uint64(0x100000 + phys.PageSize - 4) // straddles two pages
	if err := env.WriteU64(va, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := env.ReadU64(va)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("straddling word = %#x %v", v, err)
	}
}

func TestExitRemovesFromScheduling(t *testing.T) {
	k := bootTestKernel(t, nil)
	p1, _ := k.CreateProcess("a", "step-counter")
	p2, _ := k.CreateProcess("b", "step-counter")
	env := &Env{K: k, P: p1}
	if err := env.Exit(0); err != nil {
		t.Fatal(err)
	}
	res := k.Run(20)
	if res.Panic != nil {
		t.Fatalf("panic: %v", res.Panic)
	}
	// Only p2 advanced.
	e2 := &Env{K: k, P: p2}
	v, _ := e2.ReadU64(scVA)
	if v != 20 {
		t.Fatalf("p2 steps = %d", v)
	}
	if p1.Ctx.PC != 0 {
		t.Fatal("exited process kept running")
	}
}

func TestEnvPIDAndResurrectedAccessors(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if env.PID() == 0 {
		t.Fatal("zero pid")
	}
	if env.Resurrected() != 0 {
		t.Fatal("fresh process claims resurrection")
	}
	if env.PC() != 0 {
		t.Fatal("fresh PC nonzero")
	}
}

func TestMapRegionValidation(t *testing.T) {
	k := bootTestKernel(t, nil)
	p, _ := k.CreateProcess("a", "test-prog")
	// Unaligned start.
	if err := k.MapRegion(p, 0x100001, 4096, layout.ProtRead, layout.RegionAnon, 0, 0); err == nil {
		t.Fatal("unaligned region accepted")
	}
	// Zero length.
	if err := k.MapRegion(p, 0x100000, 0, layout.ProtRead, layout.RegionAnon, 0, 0); err == nil {
		t.Fatal("zero-length region accepted")
	}
	// Beyond user space.
	if err := k.MapRegion(p, layout.MaxUserVA-phys.PageSize, 2*phys.PageSize, layout.ProtRead, layout.RegionAnon, 0, 0); err == nil {
		t.Fatal("region past user space accepted")
	}
}

func TestLongNamesRejected(t *testing.T) {
	k := bootTestKernel(t, nil)
	long := string(make([]byte, 100))
	if _, err := k.CreateProcess(long, "test-prog"); err == nil {
		t.Fatal("oversized name accepted")
	}
	p, _ := k.CreateProcess("ok", "test-prog")
	if err := k.RegisterCrashProcedure(p, long); err == nil {
		t.Fatal("oversized crash-proc name accepted")
	}
}
