package layout

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// junkCapacities returns reusable buffers for the record reader, filled
// with junk up to their capacity: empty, one header, exactly the record
// data's header announces, and larger than that, each once at full length
// and once resliced to length zero.
func junkCapacities(data []byte) [][]byte {
	exact := HeaderSize + TrailerSize
	if len(data) >= HeaderSize {
		if n := binary.LittleEndian.Uint32(data[4:]); n <= MaxPayload {
			exact += int(n)
		}
	}
	var out [][]byte
	for _, c := range []int{0, HeaderSize, exact, exact + 64} {
		junk := bytes.Repeat([]byte{0xA5}, c)
		out = append(out, junk, bytes.Clone(junk)[:0])
	}
	return out
}

// otherRecord is a sealed record of another type than the one under test,
// read through each buffer before a decode so the buffer last held a
// different record.
var otherRecord = &memBuf{data: (&Proc{PID: 1, Name: "other", Program: "other-program"}).AppendRecord(nil)}

// FuzzReadRecord drives the record framing with arbitrary bytes: it must
// never panic, must read back any payload the sealer framed, and must give
// the same answer through a reused buffer of any capacity that last held
// another record as through a fresh one. Run the seed corpus with go test,
// or explore with go test -fuzz=FuzzReadRecord.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{}, uint8(1), true)
	f.Add(sealed(TypeProc, []byte("payload")), uint8(2), true)
	flagged := sealed(TypeFile, bytes.Repeat([]byte{0xAA}, 300))
	flagged[3] = 7 // the flags byte is not read
	f.Add(flagged, uint8(4), false)
	f.Add([]byte{0x6F, 0x0D, 2, 0, 255, 255, 255, 255}, uint8(2), true)
	f.Fuzz(func(t *testing.T, data []byte, wantType uint8, crc bool) {
		m := &memBuf{data: make([]byte, len(data)+64)}
		copy(m.data, data)
		want := Type(wantType % uint8(typeMax))
		var fresh []byte
		payload, err := readRecord(m, 0, want, crc, &fresh)
		if err == nil && payload == nil && len(data) > HeaderSize {
			// nil payload is only legal for zero-length records.
			if n := binary.LittleEndian.Uint32(data[4:]); n != 0 {
				t.Fatalf("nil payload for length %d", n)
			}
		}
		payload = bytes.Clone(payload)
		if len(data) <= MaxPayload {
			var buf []byte
			p, e := readRecord(&memBuf{data: sealed(want, data)}, 0, want, true, &buf)
			if e != nil || !bytes.Equal(p, data) {
				t.Fatalf("sealed %x read back as %x: %v", data, p, e)
			}
		}
		for _, buf := range junkCapacities(data) {
			for pass, other := range []bool{false, true, false} {
				if other {
					if _, err := readRecord(otherRecord, 0, TypeProc, true, &buf); err != nil {
						t.Fatal(err)
					}
				}
				p, e := readRecord(m, 0, want, crc, &buf)
				if (e == nil) != (err == nil) || (e != nil && e.Error() != err.Error()) {
					t.Fatalf("cap %d pass %d: error %v, fresh buffer gave %v", cap(buf), pass, e, err)
				}
				if e == nil && !bytes.Equal(p, payload) {
					t.Fatalf("cap %d pass %d: payload %x, fresh buffer gave %x", cap(buf), pass, p, payload)
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

// FuzzRecordDecode drives every record type's decoder — the full decoder
// surface the crash kernel exposes to the dead kernel's bytes — with
// arbitrary memory images. The resurrection scan walks these concurrently,
// so a panic here is a crash-kernel crash; decoders must return errors, not
// panic, for any input. checkRecord holds each decoder to its contract
// through reused buffers and against its encoder. Corpus: one well-formed
// sealed record per type, with and without the CRC check, and records that
// frame correctly but decode wrong or fail their checksum.
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
		t   Type
		rec []byte
	}{
		{TypeGlobals, g.AppendRecord(nil)},
		{TypeProc, p.AppendRecord(nil)},
		{TypeMemRegion, v.AppendRecord(nil)},
		{TypeFile, fr.AppendRecord(nil)},
		{TypeSwapTable, st.AppendRecord(nil)},
		{TypeTerminal, term.AppendRecord(nil)},
		{TypeSignals, sg.AppendRecord(nil)},
		{TypeShm, sh.AppendRecord(nil)},
		{TypePipe, pp.AppendRecord(nil)},
		{TypeSocket, sk.AppendRecord(nil)},
		{TypeCachePage, cp.AppendRecord(nil)},
	} {
		f.Add(s.rec, uint8(s.t), true)
		f.Add(s.rec, uint8(s.t), false)
	}
	f.Add([]byte{}, uint8(TypeProc), true)
	f.Add(bytes.Repeat([]byte{0xFF}, 96), uint8(TypeShm), false)
	// Records that frame correctly but decode wrong, and ones whose
	// checksum no longer matches: the decoders' error paths.
	for _, s := range []struct {
		t   Type
		rec []byte
	}{
		{TypeCachePage, cp.AppendRecord(nil)},
		{TypeFile, fr.AppendRecord(nil)},
		{TypeTerminal, term.AppendRecord(nil)},
	} {
		body := s.rec[HeaderSize : len(s.rec)-TrailerSize]
		f.Add(sealed(s.t, body[:len(body)-1]), uint8(s.t), true)
		f.Add(sealed(s.t, append(bytes.Clone(body), 0)), uint8(s.t), false)
		flipped := bytes.Clone(s.rec)
		flipped[HeaderSize] ^= 1
		f.Add(flipped, uint8(s.t), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, typeSel uint8, crc bool) {
		m := &memBuf{data: make([]byte, len(data)+64)}
		copy(m.data, data)
		switch Type(typeSel % uint8(typeMax)) {
		case TypeGlobals:
			checkRecord(t, m, data, crc, Globals{Version: 9, BootCount: 8, ProcListHead: 7, NextPID: 6, HeapFrames: 5})
		case TypeProc:
			checkRecord(t, m, data, crc, Proc{PID: 9, State: ProcZombie, Name: "junk", Program: "junk-prog", PageDir: 1, Next: 2})
		case TypeMemRegion:
			checkRecord(t, m, data, crc, MemRegion{Start: 0xDEAD, End: 0xBEEF, Prot: 7, Kind: 1, File: 1, FileOffset: 2, Next: 3})
		case TypeFile:
			checkRecord(t, m, data, crc, FileRec{FD: 9, Path: "/junk", Flags: 7, Offset: 5, Mapped: true, CachePages: 1, Next: 2})
			checkPathKept(t, m, crc)
		case TypeSwapTable:
			junk := SwapTable{}
			junk.Areas[1] = SwapArea{Device: "/dev/junk", Active: true, Slots: 3}
			checkRecord(t, m, data, crc, junk)
		case TypeTerminal:
			checkRecord(t, m, data, crc, Terminal{Index: 9, Rows: 1, Cols: 1, CursorRow: 2, CursorCol: 3, Settings: 4, Screen: 5})
		case TypeSignals:
			junk := Signals{Blocked: 0xFF}
			junk.Handlers[3] = 0xDEAD
			checkRecord(t, m, data, crc, junk)
		case TypeShm:
			checkRecord(t, m, data, crc, Shm{Key: 9, Size: 8, AttachedAt: 7, Frames: []uint64{6, 5}, Next: 4})
		case TypePipe:
			checkRecord(t, m, data, crc, Pipe{ID: 9, Buf: 1, ReadPos: 2, WritePos: 3, Locked: true, PeerPID: 4, Next: 5})
		case TypeSocket:
			checkRecord(t, m, data, crc, Socket{ID: 9, Proto: ProtoUDP, LocalPort: 1, RemotePort: 2, Seq: 3, Window: 4, Next: 5})
		case TypeCachePage:
			checkRecord(t, m, data, crc, CachePage{FileOff: 0xDEAD, Frame: 0xBEEF, Dirty: true, Bytes: 7, Next: 0xF00D})
		}
	})
}

// FuzzProcDecode exercises the highest-fan-in record decoder.
func FuzzProcDecode(f *testing.F) {
	p := Proc{PID: 1, Name: "a", Program: "b", CrashProc: "c"}
	rec := p.AppendRecord(nil)
	f.Add(rec[HeaderSize : len(rec)-TrailerSize])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var q Proc
		_ = q.decode(0, payload)
	})
}

// checkRecord holds the decoder of the record at 0 to its contract. The
// reference decodes through a fresh buffer; the same decode through reused
// junk-filled buffers of every capacity junkCapacities offers — as they
// come, after a different record, and again — must give the same value or
// the same error. Every decode starts from junk, which a failed one must
// leave untouched. And a record accepted with the CRC check on must
// re-encode through AppendRecord to exactly the bytes it was read from,
// whatever the destination held: the kernel writes nothing else, so the
// checksum vouches that the bytes are the encoder's.
func checkRecord[T any, P record[T]](t *testing.T, m *memBuf, data []byte, crc bool, junk T) {
	t.Helper()
	typ := reflect.TypeFor[T]().Name()
	want := junk
	var fresh []byte
	werr := P(&want).Read(m, 0, crc, &fresh)
	if werr != nil && !reflect.DeepEqual(want, junk) {
		t.Fatalf("%s: failed decode (%v) wrote %+v", typ, werr, want)
	}
	for _, buf := range junkCapacities(data) {
		for pass, other := range []bool{false, true, false} {
			if other {
				if err := new(Proc).Read(otherRecord, 0, true, &buf); err != nil {
					t.Fatal(err)
				}
			}
			got := junk
			err := P(&got).Read(m, 0, crc, &buf)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("%s cap %d pass %d: error %v, fresh buffer gave %v", typ, cap(buf), pass, err, werr)
			case err != nil && err.Error() != werr.Error():
				t.Fatalf("%s cap %d pass %d: error %q, fresh buffer gave %q", typ, cap(buf), pass, err, werr)
			case !reflect.DeepEqual(got, want):
				t.Fatalf("%s cap %d pass %d: decoded %+v, fresh buffer gave %+v", typ, cap(buf), pass, got, want)
			}
		}
	}
	if werr != nil || !crc {
		return
	}
	read := m.data[:len(P(&want).AppendRecord(nil))]
	prefix := []byte("held before")
	for _, dst := range [][]byte{nil, bytes.Repeat([]byte{0xA5}, len(read)+64)[:0], bytes.Clone(prefix)} {
		got := P(&want).AppendRecord(dst)
		if !bytes.Equal(got[:len(dst)], dst) || !bytes.Equal(got[len(dst):], read) {
			t.Fatalf("%s: accepted record re-encodes to\n%x\nafter %x, read from\n%x", typ, got[len(dst):], dst, read)
		}
	}
}

// checkPathKept decodes the open-file record at 0 into a destination whose
// Path already holds the path in other storage: a sound decode must keep
// that string, not copy the bytes again.
func checkPathKept(t *testing.T, m *memBuf, crc bool) {
	t.Helper()
	var want FileRec
	var buf []byte
	if err := want.Read(m, 0, crc, &buf); err != nil || want.Path == "" {
		return
	}
	keep := strings.Clone(want.Path)
	dst := FileRec{Path: keep}
	if err := dst.Read(m, 0, crc, &buf); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(dst.Path) != unsafe.StringData(keep) || dst != want {
		t.Fatalf("decode over an equal path gave %+v, want %+v in the destination's string", dst, want)
	}
}
