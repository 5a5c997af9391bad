package layout

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"unsafe"
)

// junkCapacities returns reusable buffers for the buffered record readers,
// filled with junk up to their capacity: empty, one header, exactly the
// record data's header announces, and larger than that, each once at full
// length and once resliced to length zero.
func junkCapacities(data []byte) [][]byte {
	exact := RecordSize(0)
	if len(data) >= HeaderSize {
		if n := binary.LittleEndian.Uint32(data[4:]); n <= MaxPayload {
			exact = RecordSize(int(n))
		}
	}
	var out [][]byte
	for _, c := range []int{0, HeaderSize, exact, exact + 64} {
		junk := bytes.Repeat([]byte{0xA5}, c)
		out = append(out, junk, bytes.Clone(junk)[:0])
	}
	return out
}

// FuzzReadRecord drives the record parser with arbitrary bytes; it must
// never panic, must round-trip records it sealed itself, and must give the
// same answer through a reused buffer of any capacity and contents.
// Run the seed corpus with go test, or explore with go test
// -fuzz=FuzzReadRecord.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{}, uint8(1), true)
	f.Add(Seal(TypeProc, 0, []byte("payload")), uint8(2), true)
	f.Add(Seal(TypeFile, 7, bytes.Repeat([]byte{0xAA}, 300)), uint8(4), false)
	f.Add([]byte{0x6F, 0x0D, 2, 0, 255, 255, 255, 255}, uint8(2), true)
	f.Fuzz(func(t *testing.T, data []byte, wantType uint8, crc bool) {
		m := &memBuf{data: make([]byte, len(data)+64)}
		copy(m.data, data)
		want := Type(wantType % uint8(typeMax))
		payload, flags, err := ReadRecord(m, 0, want, crc)
		if err == nil && payload == nil && len(data) > HeaderSize {
			// nil payload is only legal for zero-length records.
			n := int(uint32(data[4]) | uint32(data[5])<<8 | uint32(data[6])<<16 | uint32(data[7])<<24)
			if n != 0 {
				t.Fatalf("nil payload for length %d", n)
			}
		}
		if err == nil && crc {
			if img := Seal(want, flags, payload); !bytes.Equal(img, m.data[:len(img)]) {
				t.Fatalf("validated record does not re-seal to its bytes:\n%x\n%x", img, m.data[:len(img)])
			}
		}
		if len(data) <= MaxPayload {
			sealed := &memBuf{data: Seal(want, 5, data)}
			p, fl, e := ReadRecord(sealed, 0, want, true)
			if e != nil || fl != 5 || !bytes.Equal(p, data) {
				t.Fatalf("sealed %x read back as %x flags %d: %v", data, p, fl, e)
			}
		}
		for _, buf := range junkCapacities(data) {
			for pass := 0; pass < 2; pass++ {
				p, fl, e := readRecord(m, 0, want, crc, &buf)
				if (e == nil) != (err == nil) || (e != nil && e.Error() != err.Error()) {
					t.Fatalf("cap %d pass %d: error %v, ReadRecord gave %v", cap(buf), pass, e, err)
				}
				if e == nil && (fl != flags || !bytes.Equal(p, payload)) {
					t.Fatalf("cap %d pass %d: payload %x flags %d, ReadRecord gave %x %d", cap(buf), pass, p, fl, payload, flags)
				}
			}
		}
	})
}

// FuzzDecodeContext: saved hardware contexts carry no checksums; arbitrary
// bytes must decode without panicking.
func FuzzDecodeContext(f *testing.F) {
	var buf [ContextSize]byte
	EncodeContext(buf[:], &Context{Saved: true, PC: 42})
	f.Add(buf[:])
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := DecodeContext(data)
		if ok && len(data) < ContextSize {
			t.Fatal("short buffer cannot hold a context")
		}
		_ = c
	})
}

// FuzzRecordDecode drives every typed record reader — the full decoder
// surface the crash kernel exposes to the dead kernel's bytes — with
// arbitrary memory images. The resurrection scan walks these concurrently,
// so a panic here is a crash-kernel crash; decoders must return errors, not
// panic, for any input. Each decode-into reader must agree with its
// allocating twin through reused buffers (checkInto), and every record a
// reader accepts must re-seal through AppendPayload to the bytes Seal makes
// of its EncodePayload (checkAppend). Corpus: one well-formed sealed record
// per type.
func FuzzRecordDecode(f *testing.F) {
	g := Globals{Version: 1, ProcListHead: 64, NextPID: 2}
	p := Proc{PID: 3, Name: "mysqld", Program: "mysqld", CrashProc: "cp"}
	v := MemRegion{Start: 0x1000, End: 0x3000}
	fr := FileRec{Path: "/data/t0", Offset: 12}
	st := SwapTable{}
	term := Terminal{Rows: 24, Cols: 80}
	sg := Signals{}
	sh := Shm{Key: 9, Size: 4096}
	pp := Pipe{ID: 1}
	sk := Socket{ID: 2, LocalPort: 3306}
	cp := CachePage{FileOff: 4096, Bytes: 4096}
	for _, s := range []struct {
		t       Type
		payload []byte
	}{
		{TypeGlobals, g.EncodePayload()},
		{TypeProc, p.EncodePayload()},
		{TypeMemRegion, v.EncodePayload()},
		{TypeFile, fr.EncodePayload()},
		{TypeSwapTable, st.EncodePayload()},
		{TypeTerminal, term.EncodePayload()},
		{TypeSignals, sg.EncodePayload()},
		{TypeShm, sh.EncodePayload()},
		{TypePipe, pp.EncodePayload()},
		{TypeSocket, sk.EncodePayload()},
		{TypeCachePage, cp.EncodePayload()},
	} {
		f.Add(Seal(s.t, 0, s.payload), uint8(s.t), true)
		f.Add(Seal(s.t, 0, s.payload), uint8(s.t), false)
	}
	f.Add([]byte{}, uint8(TypeProc), true)
	f.Add(bytes.Repeat([]byte{0xFF}, 96), uint8(TypeShm), false)
	// Records that frame correctly but decode wrong, and ones whose
	// checksum no longer matches: the buffered decoders' error paths.
	for _, s := range []struct {
		t    Type
		body []byte
	}{
		{TypeCachePage, cp.EncodePayload()},
		{TypeFile, fr.EncodePayload()},
		{TypeTerminal, term.EncodePayload()},
	} {
		f.Add(Seal(s.t, 0, s.body[:len(s.body)-1]), uint8(s.t), true)
		f.Add(Seal(s.t, 0, append(s.body, 0)), uint8(s.t), false)
		flipped := Seal(s.t, 0, s.body)
		flipped[HeaderSize] ^= 1
		f.Add(flipped, uint8(s.t), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, typeSel uint8, crc bool) {
		m := &memBuf{data: make([]byte, len(data)+64)}
		copy(m.data, data)
		switch typ := Type(typeSel % uint8(typeMax)); typ {
		case TypeGlobals:
			r, err := ReadGlobals(m, 0, crc)
			checkAppend(t, typ, r, err)
		case TypeProc:
			r, err := ReadProc(m, 0, crc)
			checkAppend(t, typ, r, err)
		case TypeMemRegion:
			checkInto(t, m, data, crc, typ, MemRegion{Start: 0xDEAD, End: 0xBEEF, Prot: 7, Kind: 1, File: 1, FileOffset: 2, Next: 3},
				ReadMemRegion, ReadMemRegionInto)
		case TypeFile:
			checkInto(t, m, data, crc, typ, FileRec{FD: 9, Path: "/junk", Flags: 7, Offset: 5, Mapped: true, CachePages: 1, Next: 2},
				ReadFileRec, ReadFileRecInto)
			checkPathKept(t, m, crc)
		case TypeSwapTable:
			r, err := ReadSwapTable(m, 0, crc)
			checkAppend(t, typ, r, err)
		case TypeTerminal:
			checkInto(t, m, data, crc, typ, Terminal{Index: 9, Rows: 1, Cols: 1, CursorRow: 2, CursorCol: 3, Settings: 4, Screen: 5},
				ReadTerminal, ReadTerminalInto)
		case TypeSignals:
			junk := Signals{Blocked: 0xFF}
			junk.Handlers[3] = 0xDEAD
			checkInto(t, m, data, crc, typ, junk, ReadSignals, ReadSignalsInto)
		case TypeShm:
			r, err := ReadShm(m, 0, crc)
			checkAppend(t, typ, r, err)
		case TypePipe:
			checkInto(t, m, data, crc, typ, Pipe{ID: 9, Buf: 1, ReadPos: 2, WritePos: 3, Locked: true, PeerPID: 4, Next: 5},
				ReadPipe, ReadPipeInto)
		case TypeSocket:
			checkInto(t, m, data, crc, typ, Socket{ID: 9, Proto: ProtoUDP, LocalPort: 1, RemotePort: 2, Seq: 3, Window: 4, Next: 5},
				ReadSocket, ReadSocketInto)
		case TypeCachePage:
			checkInto(t, m, data, crc, typ, CachePage{FileOff: 0xDEAD, Frame: 0xBEEF, Dirty: true, Bytes: 7, Next: 0xF00D},
				ReadCachePage, ReadCachePageInto)
		}
	})
}

// FuzzProcDecode exercises the highest-fan-in record decoder.
func FuzzProcDecode(f *testing.F) {
	p := Proc{PID: 1, Name: "a", Program: "b", CrashProc: "c"}
	f.Add(p.EncodePayload())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var q Proc
		_ = q.decode(0, payload)
	})
}

// otherRecord is a sealed record of a type no reader above asks for, read
// through each buffer before a decode so the buffer last held a different
// record.
var otherRecord = &memBuf{data: Seal(TypeProc, 0, (&Proc{PID: 1, Name: "other", Program: "other-program"}).EncodePayload())}

// checkInto decodes the record at 0 with read, an allocating reader, and
// with into, its decode-into twin, through reused junk-filled buffers of
// every capacity junkCapacities offers: fresh, after a different record,
// and after the same record. Both must give the same value or the same
// error, and a failed decode must leave the destination, which starts as
// junk, untouched. A record read accepts must also re-seal (checkAppend).
func checkInto[T comparable](t *testing.T, m *memBuf, data []byte, crc bool, typ Type, junk T,
	read func(MemoryAccessor, uint64, bool) (*T, error),
	into func(MemoryAccessor, uint64, bool, *T, *[]byte) error) {
	t.Helper()
	want, werr := read(m, 0, crc)
	checkAppend(t, typ, any(want).(payloader), werr)
	for _, buf := range junkCapacities(data) {
		for pass, other := range []bool{false, true, false} {
			if other {
				if _, _, err := readRecord(otherRecord, 0, TypeProc, true, &buf); err != nil {
					t.Fatal(err)
				}
			}
			got := junk
			err := into(m, 0, crc, &got, &buf)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("%s cap %d pass %d: error %v, allocating reader gave %v", typ, cap(buf), pass, err, werr)
			case err != nil && err.Error() != werr.Error():
				t.Fatalf("%s cap %d pass %d: error %q, allocating reader gave %q", typ, cap(buf), pass, err, werr)
			case err != nil && got != junk:
				t.Fatalf("%s cap %d pass %d: failed decode wrote %+v", typ, cap(buf), pass, got)
			case err == nil && got != *want:
				t.Fatalf("%s cap %d pass %d: decoded %+v, allocating reader gave %+v", typ, cap(buf), pass, got, *want)
			}
		}
	}
}

// payloader is a record's pair of payload encoders.
type payloader interface {
	EncodePayload() []byte
	AppendPayload(dst []byte) []byte
}

// checkAppend re-seals a record a reader accepted (err == nil) through
// AppendPayload and SealInto, into a fresh image and into one that held a
// longer record: both must be the bytes Seal makes of EncodePayload.
func checkAppend(t *testing.T, typ Type, r payloader, err error) {
	t.Helper()
	if err != nil {
		return
	}
	want := Seal(typ, 0, r.EncodePayload())
	fresh := make([]byte, HeaderSize)
	reused := bytes.Repeat([]byte{0xA5}, len(want)+64)[:HeaderSize]
	for _, img := range [][]byte{fresh, reused} {
		if got := SealInto(r.AppendPayload(img), typ, 0); !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendPayload sealed to\n%x\nSeal(EncodePayload()) to\n%x", typ, got, want)
		}
	}
}

// checkPathKept decodes the open-file record at 0 into a destination whose
// Path already holds the path in other storage: a sound decode must keep
// that string, not copy the bytes again.
func checkPathKept(t *testing.T, m *memBuf, crc bool) {
	t.Helper()
	want, err := ReadFileRec(m, 0, crc)
	if err != nil || want.Path == "" {
		return
	}
	keep := strings.Clone(want.Path)
	dst := FileRec{Path: keep}
	var buf []byte
	if err := ReadFileRecInto(m, 0, crc, &dst, &buf); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(dst.Path) != unsafe.StringData(keep) || dst != *want {
		t.Fatalf("decode over an equal path gave %+v, want %+v in the destination's string", dst, *want)
	}
}
