package phys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"sync"
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
	// Generate and CopyFrame take an offset inside the frame; CopyFrame
	// also takes its end, where it copies nothing.
	p := NewPattern(func(uint64) byte { return 1 })
	for _, off := range []int{-1, PageSize, PageSize + 1} {
		if err := m.Generate(0, off, p); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Generate at offset %d: %v", off, err)
		}
	}
	for _, off := range []int{-1, PageSize + 1} {
		if err := m.CopyFrame(0, off, buf); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("CopyFrame at offset %d: %v", off, err)
		}
	}
	if err := m.CopyFrame(0, PageSize, buf); err != nil {
		t.Fatalf("CopyFrame at the frame's end: %v", err)
	}
	if s := m.Stats(); s.WriteOps != 0 || s.ReadOps != 1 {
		t.Fatalf("refused offsets counted traffic: %+v", s)
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
// only the chunk table (32 KiB) and the protection and kind tables (64 KiB
// each), not the memory and not a pointer a frame.
func TestNewMemIsSparse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMem(256 << 20)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("NewMem(256 MiB) allocated %d bytes, want under 256 KiB", got)
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

// held returns the number of frame f's sectors with storage, and whether
// the frame stores them as one page.
func held(m *Mem, f int) (sectors int, dense bool) {
	fr := m.record(f)
	if fr == nil {
		return 0, false
	}
	for _, s := range fr.sec {
		if s != nil {
			sectors++
		}
	}
	return sectors, fr.page != nil
}

// TestFrameStorageCost writes each shape of page the kernels write into
// frames never written, 64 frames a shape, and checks what the frames
// store and what the writes allocate: a PTE-sized word stores one sector;
// a WAL-shaped page, a header and a trailing CRC at opposite ends, stores
// its first and last sectors; a full non-zero page stores one page; zero
// writes store nothing; a kernel stack, generated past its 56-byte context
// and then given the context, stores the context's sector, and so does one
// byte written into a generated frame. The allowance over the stored
// bytes, 256 B a frame, covers its 88 B record in a chunk and what the
// race detector adds; a whole page per frame would exceed it many times
// over.
func TestFrameStorageCost(t *testing.T) {
	const frames, slack = 64, 256
	wal := make([]byte, PageSize)
	for i := 0; i < 48; i++ {
		wal[i] = 0xa5
	}
	copy(wal[PageSize-4:], []byte{1, 2, 3, 4})
	full := make([]byte, PageSize)
	for i := range full {
		full[i] = byte(i) | 1
	}
	pattern := NewPattern(func(a uint64) byte { return byte(a*7) | 1 })
	const contextSize = 56
	generated := func(off int, addr func(f int) uint64, b []byte) func(m *Mem, f int) error {
		return func(m *Mem, f int) error {
			if err := m.Generate(f, off, pattern); err != nil {
				return err
			}
			return m.WriteAt(addr(f), b)
		}
	}
	for _, tc := range []struct {
		name    string
		write   func(m *Mem, f int) error
		sectors int
		dense   bool
	}{
		{"pte", func(m *Mem, f int) error { return m.WriteU64(FrameAddr(f)+8*100, 7<<12|1) }, 1, false},
		{"wal-page", func(m *Mem, f int) error { return m.WriteAt(FrameAddr(f), wal) }, 2, false},
		{"full-page", func(m *Mem, f int) error { return m.WriteAt(FrameAddr(f), full) }, sectorsPerFrame, true},
		{"zero-page", func(m *Mem, f int) error { return m.WriteAt(FrameAddr(f), make([]byte, PageSize)) }, 0, false},
		{"zero-word", func(m *Mem, f int) error { return m.WriteU64(FrameAddr(f)+64, 0) }, 0, false},
		{"kernel stack", generated(contextSize, FrameAddr, full[:contextSize]), 1, false},
		{"one byte into a generated frame", generated(0, func(f int) uint64 { return FrameAddr(f) + 1000 }, []byte{0x5a}), 1, false},
	} {
		m := NewMem(frames * PageSize)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for f := 0; f < frames; f++ {
			if err := tc.write(m, f); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		for f := 0; f < frames; f++ {
			if n, dense := held(m, f); n != tc.sectors || dense != tc.dense {
				t.Fatalf("%s: frame %d holds %d sectors (dense %v), want %d (dense %v)",
					tc.name, f, n, dense, tc.sectors, tc.dense)
			}
		}
		want := uint64(frames * tc.sectors * SectorSize)
		if tc.sectors > 0 {
			want += frames * slack
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > want {
			t.Errorf("%s: %d frames allocated %d bytes, want at most %d", tc.name, frames, got, want)
		}
	}
}

// TestViewsReadGeneratedFramesConcurrently reads generated frames through
// eight views at once, as a resurrection pass's scan workers do when a
// corrupted PTE aims them at a kernel stack or at kernel text: a stack
// (generated from offset 56, then given its context), a frame generated
// whole and a generated frame with one written byte. The views are the
// frames' first readers, and every read must return the pattern's bytes
// and the written ones, store nothing and count in its own view only. No
// write runs meanwhile, as in a pass, whose commits start once every scan
// is done; a read that stored a generated sector's bytes would race the
// other views' reads under -race.
func TestViewsReadGeneratedFramesConcurrently(t *testing.T) {
	const workers, first, frames = 8, 2, 3
	m := NewMem(8 * PageSize)
	p := NewPattern(func(a uint64) byte { return byte(a*7) | 1 })
	base := FrameAddr(first)
	if m.Generate(first, 56, p) != nil || m.WriteAt(base, make([]byte, 56)) != nil ||
		m.Generate(first+1, 0, p) != nil ||
		m.Generate(first+2, 0, p) != nil || m.WriteAt(FrameAddr(first+2)+1000, []byte{0x5a}) != nil {
		t.Fatal("setting up the generated frames failed")
	}
	want := make([]byte, frames*PageSize)
	p.fill(base, want)
	clear(want[:56])
	want[2*PageSize+1000] = 0x5a
	stored, stats := storageOf(m), m.Stats()
	generated := []struct {
		addr uint64
		n    int
		want bool
	}{
		{base + SectorSize, PageSize - SectorSize, true},
		{base, PageSize, false},
		{FrameAddr(first + 1), PageSize, true},
		{FrameAddr(first + 2), PageSize, false},
	}
	views := make([]*Mem, workers)
	var wg sync.WaitGroup
	for w := range views {
		views[w] = m.View()
		wg.Add(1)
		go func(v *Mem) {
			defer wg.Done()
			got := make([]byte, len(want))
			if err := v.ReadAt(base, got); err != nil || !bytes.Equal(got, want) {
				t.Errorf("ReadAt through a view: %v, or bytes differ", err)
			}
			for off := 0; off < len(want); off += 64 {
				if w, err := v.ReadU64(base + uint64(off)); err != nil || w != binary.LittleEndian.Uint64(want[off:]) {
					t.Errorf("ReadU64(%#x) = %#x, %v", base+uint64(off), w, err)
				}
			}
			for _, g := range generated {
				if v.ReadGenerated(g.addr, g.n, p) != g.want {
					t.Errorf("ReadGenerated(%#x, %d) = %v", g.addr, g.n, !g.want)
				}
			}
			for f := 0; f < frames; f++ {
				for _, off := range []int{0, 1000} {
					buf := make([]byte, PageSize)
					if err := v.CopyFrame(first+f, off, buf); err != nil ||
						!bytes.Equal(buf[:PageSize-off], want[f*PageSize+off:(f+1)*PageSize]) {
						t.Errorf("CopyFrame(%d, %d): %v, or bytes differ", first+f, off, err)
					}
				}
			}
		}(views[w])
	}
	wg.Wait()
	per := Stats{ReadOps: 1 + int64(len(want)/64) + int64(len(generated)), ReadBytes: int64(len(want) + len(want)/64*8)}
	for _, g := range generated {
		per.ReadBytes += int64(g.n)
	}
	for _, v := range views {
		if got := v.Stats(); got != per {
			t.Errorf("a view counted %+v, want %+v", got, per)
		}
		m.Absorb(v)
	}
	stats.ReadOps += workers * per.ReadOps
	stats.ReadBytes += workers * per.ReadBytes
	if got := m.Stats(); got != stats {
		t.Errorf("after absorbing the views the memory counts %+v, want %+v", got, stats)
	}
	for f, s := range storageOf(m) {
		if s != stored[f] {
			t.Errorf("frame %d's storage changed under reads", f)
		}
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
