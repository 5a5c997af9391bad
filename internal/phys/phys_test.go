package phys

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMemReadWriteRoundTrip(t *testing.T) {
	m := NewMem(16 * PageSize)
	data := []byte("otherworld")
	if err := m.WriteAt(100, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := m.ReadAt(100, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Fatalf("got %q", buf)
	}
}

func TestMemBounds(t *testing.T) {
	m := NewMem(2 * PageSize)
	buf := make([]byte, 16)
	if err := m.ReadAt(uint64(m.Size())-8, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := m.WriteAt(uint64(m.Size()), buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: %v", err)
	}
	if err := m.ReadAt(0, make([]byte, m.Size())); err != nil {
		t.Fatalf("full read: %v", err)
	}
}

func TestProtectionFault(t *testing.T) {
	m := NewMem(4 * PageSize)
	if err := m.Protect(1, true); err != nil {
		t.Fatal(err)
	}
	err := m.WriteAt(PageSize+10, []byte{1})
	var pf *ProtectionFault
	if !errors.As(err, &pf) {
		t.Fatalf("want ProtectionFault, got %v", err)
	}
	if pf.Frame != 1 {
		t.Fatalf("fault frame = %d", pf.Frame)
	}
	// The write must not have landed.
	var b [1]byte
	if err := m.ReadAt(PageSize+10, b[:]); err != nil || b[0] != 0 {
		t.Fatalf("protected byte changed: %v %v", b[0], err)
	}
	// Spanning writes that touch a protected frame are rejected whole.
	if err := m.WriteAt(PageSize-4, make([]byte, 8)); !errors.As(err, &pf) {
		t.Fatalf("spanning write: %v", err)
	}
	// Unprotect and retry.
	if err := m.Protect(1, false); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(PageSize+10, []byte{7}); err != nil {
		t.Fatal(err)
	}
}

func TestU64RoundTripProperty(t *testing.T) {
	m := NewMem(8 * PageSize)
	f := func(addr uint32, v uint64) bool {
		a := uint64(addr) % uint64(m.Size()-8)
		if err := m.WriteU64(a, v); err != nil {
			return false
		}
		got, err := m.ReadU64(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameKinds(t *testing.T) {
	m := NewMem(4 * PageSize)
	if err := m.SetKind(2, FrameUser); err != nil {
		t.Fatal(err)
	}
	if m.Kind(2) != FrameUser {
		t.Fatalf("kind = %v", m.Kind(2))
	}
	if m.CountKind(FrameUser) != 1 {
		t.Fatalf("count = %d", m.CountKind(FrameUser))
	}
	if m.Kind(99) != FrameFree {
		t.Fatal("out-of-range kind should be free")
	}
}

func TestZeroRespectsProtection(t *testing.T) {
	m := NewMem(2 * PageSize)
	if err := m.WriteAt(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(0, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(0); err == nil {
		t.Fatal("Zero on protected frame should fail")
	}
	if err := m.Protect(0, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(0); err != nil {
		t.Fatal(err)
	}
	var b [3]byte
	if err := m.ReadAt(0, b[:]); err != nil || b != [3]byte{} {
		t.Fatalf("frame not zeroed: %v %v", b, err)
	}
}

func TestAllocatorBasics(t *testing.T) {
	m := NewMem(8 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 2, Frames: 4})
	if a.FreeFrames() != 4 {
		t.Fatalf("free = %d", a.FreeFrames())
	}
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		f, err := a.Alloc(FrameUser)
		if err != nil {
			t.Fatal(err)
		}
		if f < 2 || f >= 6 {
			t.Fatalf("frame %d outside region", f)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	if _, err := a.Alloc(FrameUser); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("want ErrNoFrames, got %v", err)
	}
	a.Free(3)
	f, err := a.Alloc(FrameKernelHeap)
	if err != nil || f != 3 {
		t.Fatalf("reuse failed: %d %v", f, err)
	}
	if m.Kind(3) != FrameKernelHeap {
		t.Fatalf("kind = %v", m.Kind(3))
	}
}

// TestFreeFramesCountsEachFrameOnce claims a frame that is still on the
// free stack and frees it, so it sits on the stack twice: FreeFrames must
// still count what Alloc can hand out.
func TestFreeFramesCountsEachFrameOnce(t *testing.T) {
	m := NewMem(8 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 4})
	if err := a.Claim(2, FrameKernelText); err != nil {
		t.Fatal(err)
	}
	a.Free(2)
	if got := a.FreeFrames(); got != 4 {
		t.Fatalf("FreeFrames = %d, want 4", got)
	}
	n := 0
	for ; ; n++ {
		if _, err := a.Alloc(FrameUser); err != nil {
			break
		}
	}
	if n != 4 || a.FreeFrames() != 0 {
		t.Fatalf("Alloc handed out %d frames, FreeFrames now %d; want 4 and 0", n, a.FreeFrames())
	}
}

func TestAllocatorZeroesFrames(t *testing.T) {
	m := NewMem(4 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 4})
	f, err := a.Alloc(FrameUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(FrameAddr(f), []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	a.Free(f)
	g, err := a.Alloc(FrameUser)
	if err != nil || g != f {
		t.Fatalf("realloc: %d %v", g, err)
	}
	var b [3]byte
	if err := m.ReadAt(FrameAddr(g), b[:]); err != nil || b != [3]byte{} {
		t.Fatalf("frame not zeroed on realloc: %v", b)
	}
}

func TestAllocatorClaim(t *testing.T) {
	m := NewMem(8 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 8})
	if err := a.Claim(5, FrameKernelText); err != nil {
		t.Fatal(err)
	}
	if err := a.Claim(5, FrameKernelText); err == nil {
		t.Fatal("double claim should fail")
	}
	if err := a.Claim(100, FrameKernelText); err == nil {
		t.Fatal("claim outside set should fail")
	}
	// Frame 5 must never be handed out.
	for i := 0; i < 7; i++ {
		f, err := a.Alloc(FrameUser)
		if err != nil {
			t.Fatal(err)
		}
		if f == 5 {
			t.Fatal("claimed frame was allocated")
		}
	}
}

func TestAllocatorAddFreeFrames(t *testing.T) {
	m := NewMem(8 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 2})
	// Mark frames 4,5 as used by "another kernel".
	_ = m.SetKind(4, FrameKernelHeap)
	_ = m.SetKind(5, FrameUser)
	added := a.AddFreeFrames(Region{Start: 2, Frames: 6})
	if added != 4 { // frames 2,3,6,7 are free-tagged
		t.Fatalf("added = %d, want 4", added)
	}
	for i := 0; i < 6; i++ {
		f, err := a.Alloc(FrameUser)
		if err != nil {
			t.Fatal(err)
		}
		if f == 4 || f == 5 {
			t.Fatal("allocated a frame another kernel owns")
		}
	}
}

func TestAllocatorAdoptUnmanaged(t *testing.T) {
	m := NewMem(8 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 2})
	_ = m.SetKind(4, FrameKernelHeap)
	_ = m.Protect(4, true)
	adopted := a.AdoptUnmanaged(Region{Start: 0, Frames: 8})
	if adopted != 6 {
		t.Fatalf("adopted = %d, want 6", adopted)
	}
	if m.Kind(4) != FrameFree || m.Protected(4) {
		t.Fatal("adoption must reset kind and protection")
	}
	if !a.Manages(4) {
		t.Fatal("adopted frame not managed")
	}
}

func TestAllocNReleasesOnFailure(t *testing.T) {
	m := NewMem(4 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 3})
	if _, err := a.AllocN(5, FrameUser); err == nil {
		t.Fatal("AllocN beyond capacity should fail")
	}
	if a.FreeFrames() != 3 {
		t.Fatalf("frames leaked: free = %d", a.FreeFrames())
	}
	got, err := a.AllocN(3, FrameUser)
	if err != nil || len(got) != 3 {
		t.Fatalf("AllocN: %v %v", got, err)
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{Start: 10, Frames: 5}
	if r.End() != 15 || r.Bytes() != 5*PageSize {
		t.Fatalf("end=%d bytes=%d", r.End(), r.Bytes())
	}
	if !r.Contains(10) || !r.Contains(14) || r.Contains(15) || r.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if !r.ContainsAddr(FrameAddr(12)+5) || r.ContainsAddr(FrameAddr(15)) {
		t.Fatal("ContainsAddr wrong")
	}
}

func TestMemStats(t *testing.T) {
	m := NewMem(4 * PageSize)
	buf := make([]byte, 100)
	if err := m.WriteAt(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadAt(0, buf[:40]); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(2, true); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(FrameAddr(2), buf); err == nil {
		t.Fatal("expected protection fault")
	}
	// Out-of-range accesses are not bus traffic and must not count.
	_ = m.ReadAt(1<<40, buf)
	s := m.Stats()
	want := Stats{ReadOps: 1, ReadBytes: 40, WriteOps: 2, WriteBytes: 100 + PageSize, ProtFaults: 1}
	if s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestAllocatorOutOfRangeFrames passes the frame numbers just outside
// memory to every allocator call that takes one: none may panic, fail to
// refuse, or change the allocator or memory.
func TestAllocatorOutOfRangeFrames(t *testing.T) {
	m := NewMem(8 * PageSize)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: 4})
	if _, err := a.Alloc(FrameUser); err != nil {
		t.Fatal(err)
	}
	type state struct {
		free           []frameRun
		inSet, claimed bitset
		kinds          []FrameKind
		prot           []bool
		stats          Stats
	}
	snapshot := func() state {
		return state{
			free:    append([]frameRun(nil), a.free...),
			inSet:   append(bitset(nil), a.inSet...),
			claimed: append(bitset(nil), a.claimed...),
			kinds:   append([]FrameKind(nil), m.kind...),
			prot:    append([]bool(nil), m.prot...),
			stats:   m.Stats(),
		}
	}
	before := snapshot()
	for _, f := range []int{-1, m.NumFrames()} {
		if a.Manages(f) {
			t.Errorf("Manages(%d) = true", f)
		}
		if a.CanAdopt(f) {
			t.Errorf("CanAdopt(%d) = true", f)
		}
		a.Free(f)
		if err := a.Claim(f, FrameKernelText); err == nil {
			t.Errorf("Claim(%d) succeeded", f)
		}
		if err := a.AdoptFrame(f, FrameSpeculated); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("AdoptFrame(%d) = %v, want ErrOutOfRange", f, err)
		}
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("state changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestNewMemIsSparse installs 256 MiB and requires the boot to allocate
// only the frame table, not the memory.
func TestNewMemIsSparse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMem(256 << 20)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewMem(256 MiB) allocated %d bytes, want under 1 MiB", got)
	}
	if m.Size() != 256<<20 || m.NumFrames() != 256<<20/PageSize {
		t.Fatalf("size %d, frames %d", m.Size(), m.NumFrames())
	}
}

// TestUntouchedFramesDoNotAllocate reads, zeroes, writes zeros to and
// allocates frames never written, a different one each run, and requires no
// allocation: reading a frame, zeroing it or writing zeros to it must not
// give it storage.
func TestUntouchedFramesDoNotAllocate(t *testing.T) {
	m := NewMem(256 << 20)
	buf := make([]byte, 64)
	f := 0
	if n := testing.AllocsPerRun(100, func() {
		f++
		if err := m.ReadAt(FrameAddr(f)+PageSize-32, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadAt of untouched frames: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		f++
		if err := m.Zero(f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Zero of untouched frames: %v allocs/op", n)
	}
	zeros := make([]byte, PageSize+64)
	if n := testing.AllocsPerRun(100, func() {
		f++
		if err := m.WriteAt(FrameAddr(f)+PageSize-32, zeros); err != nil {
			t.Fatal(err)
		}
		f++
		if err := m.WriteU64(FrameAddr(f)+8, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("zero writes to untouched frames: %v allocs/op", n)
	}
	a := NewFrameAllocator(NewMem(256<<20), Region{Start: 0, Frames: 256 << 20 / PageSize})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.Alloc(FrameUser); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FrameAllocator.Alloc on fresh memory: %v allocs/op", n)
	}
}

// TestFrameAliasSeesWrites takes a Frame alias of a frame never written
// and requires it to keep aliasing the frame through later writes and
// Zero, in both directions, without counting as bus traffic.
func TestFrameAliasSeesWrites(t *testing.T) {
	m := NewMem(8 * PageSize)
	alias, err := m.Frame(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(alias) != PageSize || cap(alias) != PageSize {
		t.Fatalf("alias len %d cap %d", len(alias), cap(alias))
	}
	if m.Stats() != (Stats{}) {
		t.Fatalf("Frame counted as traffic: %+v", m.Stats())
	}
	if err := m.WriteAt(FrameAddr(5)+PageSize-2, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if alias[PageSize-2] != 1 || alias[PageSize-1] != 2 {
		t.Fatalf("alias misses WriteAt: % x", alias[PageSize-2:])
	}
	if err := m.Zero(5); err != nil {
		t.Fatal(err)
	}
	if !PageIsZero(alias) {
		t.Fatal("alias misses Zero")
	}
	alias[100] = 7
	var b [1]byte
	if err := m.ReadAt(FrameAddr(5)+100, b[:]); err != nil || b[0] != 7 {
		t.Fatalf("ReadAt misses a write through the alias: %d %v", b[0], err)
	}
	again, err := m.Frame(5)
	if err != nil || &again[0] != &alias[0] {
		t.Fatalf("second Frame(5) is not the same storage: %v", err)
	}
}

var (
	benchFrame int
	benchAlloc *FrameAllocator
	benchMem   *Mem
	benchWord  uint64
)

// BenchmarkNewMem times installing 256 MiB of physical memory, as every
// machine boot does.
func BenchmarkNewMem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMem = NewMem(256 << 20)
	}
}

// BenchmarkMemReadU64 times the counted 8-byte read kernel.walk makes for
// every page-table lookup, over a written page-table frame of a 256 MiB
// memory.
func BenchmarkMemReadU64(b *testing.B) {
	m := NewMem(256 << 20)
	base := FrameAddr(1234)
	for i := uint64(0); i < PageSize/8; i++ {
		if err := m.WriteU64(base+8*i, i<<12|1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := m.ReadU64(base + uint64(i%(PageSize/8))*8)
		if err != nil {
			b.Fatal(err)
		}
		benchWord = v
	}
}

// BenchmarkMemWriteU64 times the counted 8-byte write a PTE update makes,
// over a written page-table frame of a 256 MiB memory.
func BenchmarkMemWriteU64(b *testing.B) {
	m := NewMem(256 << 20)
	base := FrameAddr(1234)
	if err := m.WriteU64(base, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteU64(base+uint64(i%(PageSize/8))*8, uint64(i)<<12|1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameAllocFree times one Alloc (which zeroes the frame) and the
// Free that returns it, on a 256 MiB memory.
func BenchmarkFrameAllocFree(b *testing.B) {
	m := NewMem(256 << 20)
	a := NewFrameAllocator(m, Region{Start: 0, Frames: m.NumFrames()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.Alloc(FrameUser)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(f)
		benchFrame = f
	}
}

// BenchmarkAllocatorAddRegion times building an allocator over all of a
// 256 MiB memory, as every kernel boot does.
func BenchmarkAllocatorAddRegion(b *testing.B) {
	m := NewMem(256 << 20)
	all := Region{Start: 0, Frames: m.NumFrames()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAlloc = NewFrameAllocator(m, all)
	}
}

// BenchmarkAllocatorMorph times a crash kernel's allocator over a 256 MiB
// memory from its boot in a 2048-frame slot through the grant of the dead
// main kernel's free frames to the morph (NewFrameAllocator, AddFreeFrames,
// AdoptUnmanaged). The dead kernel used 4000 frames and freed three.
func BenchmarkAllocatorMorph(b *testing.B) {
	const frames = 256 << 20 / PageSize
	m := NewMem(frames * PageSize)
	slot := Region{Start: frames - 2048, Frames: 2048}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for f := 0; f < frames; f++ {
			k := FrameFree
			if f < 4000 && f != 100 && f != 2000 && f != 3999 {
				k = FrameUser
			}
			_ = m.SetKind(f, k)
		}
		b.StartTimer()
		a := NewFrameAllocator(m, slot)
		a.AddFreeFrames(Region{Start: 0, Frames: slot.Start - slot.Frames})
		a.AdoptUnmanaged(Region{Start: 0, Frames: frames})
		benchAlloc = a
	}
}

// zeroPositions returns the byte positions TestPageIsZeroBoundary sets in
// an n-byte buffer: every one up to 300 bytes, then both ends, the word
// edges and each side of every PageSize chunk boundary.
func zeroPositions(n int) []int {
	if n <= 300 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	for _, i := range []int{0, 7, 8, n / 2, PageSize - 1, PageSize, PageSize + 1, 2*PageSize - 1, 2 * PageSize, n - 1} {
		if i < n {
			out = append(out, i)
		}
	}
	return out
}

// TestPageIsZeroBoundary checks PageIsZero at every length from 0 to 300
// and at PageSize-1, PageSize, PageSize+1 and 2·PageSize+1, each all zero
// and with one byte set at each position of interest, including past the
// first PageSize chunk.
func TestPageIsZeroBoundary(t *testing.T) {
	var lengths []int
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, PageSize-1, PageSize, PageSize+1, 2*PageSize+1)
	for _, n := range lengths {
		b := make([]byte, n)
		if !PageIsZero(b) {
			t.Fatalf("%d zero bytes reported non-zero", n)
		}
		for _, i := range zeroPositions(n) {
			b[i] = 0x80
			if PageIsZero(b) {
				t.Fatalf("%d bytes with byte %d set reported zero", n, i)
			}
			b[i] = 0
		}
	}
}

var benchZero bool

// BenchmarkPageIsZero times the zero test the resurrection scan makes on
// every resident page it reads: an all-zero page (the whole page compared),
// a page whose first byte is set, and one whose last byte is set.
func BenchmarkPageIsZero(b *testing.B) {
	for _, bc := range []struct {
		name string
		set  int
	}{{"zero", -1}, {"first", 0}, {"last", PageSize - 1}} {
		b.Run(bc.name, func(b *testing.B) {
			page := make([]byte, PageSize)
			if bc.set >= 0 {
				page[bc.set] = 1
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchZero = PageIsZero(page)
			}
		})
	}
}
