package layout

import (
	"testing"
	"testing/quick"

	"otherworld/internal/phys"
)

func TestPTEBits(t *testing.T) {
	p := MakePresentPTE(123, true)
	if !p.Present() || p.Swapped() || !p.Writable() || p.Dirty() {
		t.Fatalf("present PTE bits wrong: %#x", uint64(p))
	}
	if p.Frame() != 123 {
		t.Fatalf("frame = %d", p.Frame())
	}
	d := p.WithDirty()
	if !d.Dirty() || d.Frame() != 123 {
		t.Fatalf("dirty PTE wrong: %#x", uint64(d))
	}

	s := MakeSwappedPTE(77, false)
	if s.Present() || !s.Swapped() || s.Writable() {
		t.Fatalf("swapped PTE bits wrong: %#x", uint64(s))
	}
	if s.SwapSlot() != 77 {
		t.Fatalf("slot = %d", s.SwapSlot())
	}
}

func TestPTEFramePreservedProperty(t *testing.T) {
	f := func(frame uint32, writable bool) bool {
		fr := int(frame % (1 << 30))
		p := MakePresentPTE(fr, writable)
		return p.Frame() == fr && p.Writable() == writable && p.Present()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVirtSplitJoinProperty(t *testing.T) {
	f := func(va uint64) bool {
		va %= MaxUserVA
		dir, table, off, ok := VirtSplit(va)
		if !ok {
			return false
		}
		return VirtJoin(dir, table, off) == va
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtSplitRejectsBeyondUserSpace(t *testing.T) {
	if _, _, _, ok := VirtSplit(MaxUserVA); ok {
		t.Fatal("MaxUserVA should be rejected")
	}
	if _, _, _, ok := VirtSplit(MaxUserVA - 1); !ok {
		t.Fatal("MaxUserVA-1 should be accepted")
	}
}

func TestContextRoundTrip(t *testing.T) {
	want := Context{
		Saved: true, InSyscall: true, SyscallNo: 11,
		PC: 1234, SP: 0xFFF0, Regs: [4]uint64{1, 2, 3, 4},
	}
	m := newMemBuf(4096)
	if err := WriteContext(m, 0, &want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadContext(m, 0)
	if err != nil || !ok {
		t.Fatalf("ReadContext: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestContextCodecAllocs requires saving and loading a context over a
// *phys.Mem, as every system call does twice, to allocate nothing, with
// the bytes and the counted traffic of one ContextSize write and read.
func TestContextCodecAllocs(t *testing.T) {
	m := phys.NewMem(4 * phys.PageSize)
	const addr = phys.PageSize + 64
	want := Context{Saved: true, SyscallNo: 3, PC: 77, SP: 0xFFF0, Regs: [4]uint64{9, 8, 7, 6}}
	var got Context
	var ok bool
	var err error
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteContext(m, addr, &want); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteContext over a *phys.Mem: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		got, ok, err = ReadContext(m, addr)
	}); n != 0 {
		t.Errorf("ReadContext over a *phys.Mem: %v allocs/op, want 0", n)
	}
	if err != nil || !ok || got != want {
		t.Fatalf("ReadContext = %+v, %v, %v; want %+v", got, ok, err, want)
	}
	m = phys.NewMem(4 * phys.PageSize)
	if err := WriteContext(m, addr, &want); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadContext(m, addr); err != nil {
		t.Fatal(err)
	}
	one := phys.Stats{ReadOps: 1, ReadBytes: ContextSize, WriteOps: 1, WriteBytes: ContextSize}
	if st := m.Stats(); st != one {
		t.Fatalf("a save and a load counted %+v, want %+v", st, one)
	}
	var enc [ContextSize]byte
	EncodeContext(enc[:], &want)
	raw := make([]byte, ContextSize)
	if err := m.ReadAt(addr, raw); err != nil || string(raw) != string(enc[:]) {
		t.Fatalf("stored bytes % x (%v), want % x", raw, err, enc)
	}
}

func TestContextMissingSentinel(t *testing.T) {
	m := newMemBuf(4096)
	if _, ok, err := ReadContext(m, 0); ok || err != nil {
		t.Fatalf("zeroed stack should have no context (ok=%v err=%v)", ok, err)
	}
}

// TestContextCorruptionUndetected documents that saved contexts carry no
// checksum: a corrupted PC is returned as-is, the channel behind the
// residual data-corruption cases in Table 5.
func TestContextCorruptionUndetected(t *testing.T) {
	want := Context{Saved: true, PC: 100}
	m := newMemBuf(4096)
	if err := WriteContext(m, 0, &want); err != nil {
		t.Fatal(err)
	}
	m.data[8] ^= 0xFF // low byte of PC
	got, ok, err := ReadContext(m, 0)
	if err != nil || !ok {
		t.Fatalf("corrupted context must still parse: ok=%v err=%v", ok, err)
	}
	if got.PC == want.PC {
		t.Fatal("PC should differ after corruption")
	}
}
