package layout

import (
	"bytes"
	"testing"
)

// countingMem is an in-memory Reader that tallies the bytes read, the way
// the resurrection engine's accessor charges Table 4.
type countingMem struct {
	memBuf
	read int
}

func (m *countingMem) ReadAt(addr uint64, p []byte) error {
	m.read += len(p)
	return m.memBuf.ReadAt(addr, p)
}

// keepFrame is a payload decoder that keeps the frame itself.
func keepFrame(f Frame) (Frame, bool) {
	f.Payload = append([]byte(nil), f.Payload...)
	return f, true
}

func TestSalvageSortsEveryFrame(t *testing.T) {
	const size = 128
	m := newMemBuf(6 * size)
	put := func(i int, img []byte) { copy(m.data[i*size:], img) }
	put(0, SealFrame(KindTrace, 0, 5, size, []byte("current")))
	put(1, SealFrame(KindTrace, 0, 4, size, []byte("older")))
	// Frame 2 stays empty.
	put(3, SealFrame(KindTrace, 0, 5, size, []byte("flipped")))
	m.data[3*size+FrameHeaderSize] ^= 0xff
	put(4, SealFrame(KindIndexEntry, 0, 5, size, []byte("foreign")))
	put(5, []byte("garbage without the magic"))

	span := Span{Count: 6, Size: size, Kind: KindTrace}
	got, s := SalvageFrames(m, span, true, keepFrame)
	want := Salvage{Gen: 5, Empty: 1, Damaged: 3, Stale: 1, Valid: 1, Foreign: 2}
	if s != want {
		t.Fatalf("salvage = %+v, want %+v", s, want)
	}
	if len(got) != 1 || string(got[0].Payload) != "current" || got[0].Addr != 0 {
		t.Fatalf("valid frames = %+v, want only frame 0", got)
	}

	// A pinned generation overrides the newest-wins rule.
	span.Gen = 4
	if got, _ := SalvageFrames(m, span, true, keepFrame); len(got) != 1 || string(got[0].Payload) != "older" {
		t.Fatalf("pinned gen 4 kept %+v", got)
	}
	// Without the CRC check the flipped frame passes the structural checks.
	span.Gen = 0
	if _, s := SalvageFrames(m, span, false, keepFrame); s.Valid != 2 || s.Damaged != 2 {
		t.Fatalf("CRC off: %+v, want 2 valid, 2 damaged", s)
	}
	// A frame the payload decoder rejects is damaged.
	reject := func(f Frame) (Frame, bool) { return f, string(f.Payload) != "current" }
	if _, s := SalvageFrames(m, span, true, reject); s.Damaged != 4 || s.Valid != 1 || s.Gen != 4 {
		t.Fatalf("rejected payload: %+v, want 4 damaged and gen 4 valid", s)
	}
}

// TestSalvageSparseReadsOnlyFramedBytes pins the sparse read discipline the
// candidate index's Table 4 bytes depend on: an empty slot costs its
// two-byte prefix, a sealed one its framed bytes, never the whole slot.
func TestSalvageSparseReadsOnlyFramedBytes(t *testing.T) {
	m := &countingMem{memBuf: *newMemBuf(3 * IndexSlotSize)}
	payload := []byte("entry payload")
	copy(m.data[IndexSlotSize:], SealFrame(KindIndexEntry, 0, 1, IndexSlotSize, payload))
	_, s := SalvageFrames(m, Span{Count: 3, Size: IndexSlotSize, Kind: KindIndexEntry, Sparse: true}, true, keepFrame)
	if s.Valid != 1 || s.Empty != 2 {
		t.Fatalf("salvage = %+v", s)
	}
	if want := 2*2 + FrameOverhead + len(payload); m.read != want {
		t.Fatalf("read %d bytes, want %d", m.read, want)
	}
}

// TestSealFrameIntoOverwritesEveryByte seals frames of shrinking payloads
// into one image that starts out all 0xff and requires each to equal
// SealFrame's fresh image byte for byte: no header, payload, CRC or padding
// byte of the previous frame may survive.
func TestSealFrameIntoOverwritesEveryByte(t *testing.T) {
	const size = 64
	img := bytes.Repeat([]byte{0xff}, size)
	for _, n := range []int{size - FrameOverhead, 30, 7, 1, 0} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		SealFrameInto(img, KindMetrics, 3, uint32(n), payload)
		if want := SealFrame(KindMetrics, 3, uint32(n), size, payload); !bytes.Equal(img, want) {
			t.Fatalf("%d-byte payload:\ngot  % x\nwant % x", n, img, want)
		}
	}
}
