package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestBlockDeviceRoundTrip(t *testing.T) {
	d := NewBlockDevice("/dev/sda", 8)
	data := []byte("block payload")
	if err := d.WriteBlock(3, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("got %q", got[:len(data)])
	}
	// Unwritten blocks read as zeroes.
	z, err := d.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

// TestUnwrittenDeviceHasNoSlotTable reads every block of a fresh device,
// directly, through ReadRaw and through a swap device over it, and frees a
// slot never allocated: none of it may allocate the slot tables, and the
// capacities must still be reported. The first write then gives the device
// its table and the swap device its bitmap.
func TestUnwrittenDeviceHasNoSlotTable(t *testing.T) {
	d := NewBlockDevice("/dev/swap0", 64)
	s := NewSwapDevice(d)
	reads := []func(int) ([]byte, error){
		d.ReadBlock,
		s.Read,
		func(i int) ([]byte, error) { return ReadRaw(d, i) },
	}
	for i := 0; i < d.Blocks(); i++ {
		for _, read := range reads {
			b, err := read(i)
			if err != nil || !bytes.Equal(b, make([]byte, BlockSize)) {
				t.Fatalf("block %d: err %v, not all zero", i, err)
			}
		}
	}
	s.Free(3)
	if d.blocks != nil || s.used != nil {
		t.Fatal("reading an unwritten device allocated its slot table")
	}
	if d.Blocks() != 64 || s.Slots() != 64 || s.FreeSlots() != 64 {
		t.Fatalf("blocks %d, slots %d, free %d; want 64 each", d.Blocks(), s.Slots(), s.FreeSlots())
	}
	if _, err := d.ReadBlock(64); err == nil {
		t.Fatal("read past the end of an unwritten device succeeded")
	}
	slot, err := s.Alloc([]byte("page"))
	if err != nil || slot != 0 || d.blocks == nil || s.used == nil || s.FreeSlots() != 63 {
		t.Fatalf("first Alloc: slot %d err %v, free %d", slot, err, s.FreeSlots())
	}
	if got, _ := d.ReadBlock(0); !bytes.HasPrefix(got, []byte("page")) {
		t.Fatalf("block 0 reads %q…", got[:8])
	}
}

// TestBlockDeviceShortWriteThenOverwrite writes a full block, overwrites it
// with a short write and then a shorter one, and requires each read to show
// exactly the last write followed by zeros, in a fresh buffer each time.
func TestBlockDeviceShortWriteThenOverwrite(t *testing.T) {
	d := NewBlockDevice("/dev/sda", 4)
	full := bytes.Repeat([]byte{0xaa}, BlockSize)
	if err := d.WriteBlock(1, full); err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for _, data := range [][]byte{bytes.Repeat([]byte{0xbb}, 100), []byte("cc"), nil} {
		if err := d.WriteBlock(1, data); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadBlock(1)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, BlockSize)
		copy(want, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("after a %d-byte write the block reads % x…", len(data), got[:min(len(data)+8, BlockSize)])
		}
		if prev != nil && &prev[0] == &got[0] {
			t.Fatal("ReadBlock returned the same buffer twice")
		}
		got[0] = 0xff // a caller's buffer must not alias the block
		prev = got
	}
	again, err := d.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, make([]byte, BlockSize)) {
		t.Fatal("writing into a ReadBlock buffer changed the block")
	}
}

func TestBlockDeviceBounds(t *testing.T) {
	d := NewBlockDevice("/dev/sda", 2)
	if _, err := d.ReadBlock(2); err == nil {
		t.Fatal("read past end")
	}
	if err := d.WriteBlock(-1, nil); err == nil {
		t.Fatal("negative block")
	}
	if err := d.WriteBlock(0, make([]byte, BlockSize+1)); err == nil {
		t.Fatal("oversized write")
	}
}

func TestBusOpenByName(t *testing.T) {
	b := NewBus()
	b.Attach(NewBlockDevice("/dev/swap1", 4))
	b.Attach(NewBlockDevice("/dev/swap0", 4))
	d, err := b.Open("/dev/swap0")
	if err != nil || d.Name() != "/dev/swap0" {
		t.Fatalf("open: %v %v", d, err)
	}
	if _, err := b.Open("/dev/nope"); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("want ErrNoDevice, got %v", err)
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "/dev/swap0" {
		t.Fatalf("names = %v", names)
	}
}

func TestSwapAllocReadFree(t *testing.T) {
	s := NewSwapDevice(NewBlockDevice("/dev/swap0", 4))
	page := bytes.Repeat([]byte{7}, BlockSize)
	slot, err := s.Alloc(page)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(slot)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("read back mismatch: %v", err)
	}
	if s.FreeSlots() != 3 {
		t.Fatalf("free = %d", s.FreeSlots())
	}
	s.Free(slot)
	if s.FreeSlots() != 4 {
		t.Fatalf("free after Free = %d", s.FreeSlots())
	}
	s.Free(slot) // double free is a no-op
	if s.FreeSlots() != 4 {
		t.Fatal("double free changed accounting")
	}
}

func TestSwapFull(t *testing.T) {
	s := NewSwapDevice(NewBlockDevice("/dev/swap0", 2))
	if _, err := s.Alloc(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(nil); !errors.Is(err, ErrSwapFull) {
		t.Fatalf("want ErrSwapFull, got %v", err)
	}
}

// TestSwapContentsSurviveBitmapLoss is the two-kernel property: a fresh
// SwapDevice (new bitmap, dead kernel's slots forgotten) can still read the
// old contents raw — how the crash kernel re-stages swapped pages.
func TestSwapContentsSurviveBitmapLoss(t *testing.T) {
	dev := NewBlockDevice("/dev/swap0", 4)
	old := NewSwapDevice(dev)
	page := bytes.Repeat([]byte{0xAB}, BlockSize)
	slot, err := old.Alloc(page)
	if err != nil {
		t.Fatal(err)
	}
	// "Kernel crash": the bitmap is gone, the device remains.
	got, err := ReadRaw(dev, slot)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("raw read after crash: %v", err)
	}
}

func TestSwapSlotsIndependentProperty(t *testing.T) {
	f := func(a, b byte) bool {
		s := NewSwapDevice(NewBlockDevice("/dev/swap0", 4))
		pa := bytes.Repeat([]byte{a}, BlockSize)
		pb := bytes.Repeat([]byte{b}, BlockSize)
		sa, err1 := s.Alloc(pa)
		sb, err2 := s.Alloc(pb)
		if err1 != nil || err2 != nil || sa == sb {
			return false
		}
		ga, _ := s.Read(sa)
		gb, _ := s.Read(sb)
		return bytes.Equal(ga, pa) && bytes.Equal(gb, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceStats(t *testing.T) {
	d := NewBlockDevice("/dev/sda", 4)
	_ = d.WriteBlock(0, []byte{1})
	_, _ = d.ReadBlock(0)
	_, _ = d.ReadBlock(1)
	r, w := d.Stats()
	if r != 2 || w != 1 {
		t.Fatalf("stats = %d reads %d writes", r, w)
	}
}
