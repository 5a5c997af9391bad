package phys

import (
	"errors"
	"reflect"
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
		free           []int
		inSet, claimed []bool
		kinds          []FrameKind
		prot           []bool
		stats          Stats
	}
	snapshot := func() state {
		return state{
			free:    append([]int(nil), a.free...),
			inSet:   append([]bool(nil), a.inSet...),
			claimed: append([]bool(nil), a.claimed...),
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

var (
	benchFrame int
	benchAlloc *FrameAllocator
)

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
