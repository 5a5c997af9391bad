package layout

import (
	"bytes"
	"testing"
	"testing/quick"
)

// memBuf is an in-memory MemoryAccessor for codec tests.
type memBuf struct {
	data []byte
}

func newMemBuf(n int) *memBuf { return &memBuf{data: make([]byte, n)} }

func (m *memBuf) ReadAt(addr uint64, buf []byte) error {
	if addr+uint64(len(buf)) > uint64(len(m.data)) {
		return errShort
	}
	copy(buf, m.data[addr:])
	return nil
}

func (m *memBuf) WriteAt(addr uint64, buf []byte) error {
	if addr+uint64(len(buf)) > uint64(len(m.data)) {
		return errShort
	}
	copy(m.data[addr:], buf)
	return nil
}

// sealed frames an arbitrary payload as a type-t record with the sealer
// under every AppendRecord, for tests of the framing itself.
func sealed(t Type, payload []byte) []byte {
	w := newRecord(nil)
	w.buf = append(w.buf, payload...)
	return w.seal(t)
}

func TestSealRoundTrip(t *testing.T) {
	payload := []byte("hello kernel records")
	img := sealed(TypeProc, payload)
	if len(img) != HeaderSize+len(payload)+TrailerSize {
		t.Fatalf("sealed size %d, want %d", len(img), HeaderSize+len(payload)+TrailerSize)
	}
	m := newMemBuf(4096)
	if err := m.WriteAt(100, img); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	got, err := readRecord(m, 100, TypeProc, true, &buf)
	if err != nil {
		t.Fatalf("readRecord: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	f := func(payload []byte, prefix []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		// The sealer appends: whatever dst held before stays in front.
		w := newRecord(bytes.Clone(prefix))
		w.buf = append(w.buf, payload...)
		img := w.seal(TypeFile)
		if !bytes.Equal(img[:len(prefix)], prefix) {
			return false
		}
		m := &memBuf{data: img}
		var buf []byte
		got, err := readRecord(m, uint64(len(prefix)), TypeFile, true, &buf)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRecordDetectsBadMagic(t *testing.T) {
	m := &memBuf{data: (&Proc{PID: 1}).AppendRecord(nil)}
	m.data[0] ^= 0xFF
	var p Proc
	var buf []byte
	if err := p.Read(m, 0, true, &buf); !IsCorruption(err) {
		t.Fatalf("want corruption error, got %v", err)
	}
}

func TestReadRecordDetectsTypeMismatch(t *testing.T) {
	m := &memBuf{data: (&Proc{PID: 1}).AppendRecord(nil)}
	var f FileRec
	var buf []byte
	if err := f.Read(m, 0, true, &buf); !IsCorruption(err) {
		t.Fatalf("want corruption error, got %v", err)
	}
}

// TestCRCDetectsSingleByteFlips flips every byte of a sealed record in turn
// and checks the checksum catches each flip — the Section 4 integrity claim.
func TestCRCDetectsSingleByteFlips(t *testing.T) {
	img := (&MemRegion{Start: 0x1000, End: 0x9000, Prot: ProtRead, Next: 0x40}).AppendRecord(nil)
	for i := range img {
		m := &memBuf{data: bytes.Clone(img)}
		m.data[i] ^= 0x40
		var r MemRegion
		var buf []byte
		if err := r.Read(m, 0, true, &buf); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

// TestNoCRCMissesPayloadFlips shows the ablation: with checksums off, a
// payload flip that keeps the structure parseable goes through.
func TestNoCRCMissesPayloadFlips(t *testing.T) {
	want := CachePage{FileOff: 0x6161, Frame: 0x6161, Bytes: 0x61, Next: 0x6161}
	m := &memBuf{data: want.AppendRecord(nil)}
	m.data[HeaderSize] ^= 0x01 // first payload byte
	var got CachePage
	var buf []byte
	if err := got.Read(m, 0, false, &buf); err != nil {
		t.Fatalf("structural validation should pass: %v", err)
	}
	if got == want {
		t.Fatal("decoded page should differ")
	}
	if err := got.Read(m, 0, true, &buf); !IsCorruption(err) {
		t.Fatal("CRC mode should detect the same flip")
	}
}

func TestReadRecordRejectsHugePayloadLength(t *testing.T) {
	m := &memBuf{data: (&Proc{PID: 1}).AppendRecord(make([]byte, 0, 4096))[:4096]}
	// Overwrite the length field with an absurd value.
	m.data[4] = 0xFF
	m.data[5] = 0xFF
	m.data[6] = 0xFF
	m.data[7] = 0x7F
	var p Proc
	var buf []byte
	if err := p.Read(m, 0, false, &buf); !IsCorruption(err) {
		t.Fatalf("want corruption error, got %v", err)
	}
}
