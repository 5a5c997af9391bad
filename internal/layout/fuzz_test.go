package layout

import (
	"bytes"
	"encoding/binary"
	"testing"
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
// panic, for any input. Corpus: one well-formed sealed record per type.
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
	// Page-cache records that frame correctly but decode wrong, and one
	// whose checksum no longer matches: the buffered decoder's error paths.
	body := cp.EncodePayload()
	f.Add(Seal(TypeCachePage, 0, body[:len(body)-1]), uint8(TypeCachePage), true)
	f.Add(Seal(TypeCachePage, 0, append(body, 0)), uint8(TypeCachePage), false)
	flipped := Seal(TypeCachePage, 0, body)
	flipped[HeaderSize] ^= 1
	f.Add(flipped, uint8(TypeCachePage), true)
	f.Fuzz(func(t *testing.T, data []byte, typeSel uint8, crc bool) {
		m := &memBuf{data: make([]byte, len(data)+64)}
		copy(m.data, data)
		switch Type(typeSel % uint8(typeMax)) {
		case TypeGlobals:
			_, _ = ReadGlobals(m, 0, crc)
		case TypeProc:
			_, _ = ReadProc(m, 0, crc)
		case TypeMemRegion:
			_, _ = ReadMemRegion(m, 0, crc)
		case TypeFile:
			_, _ = ReadFileRec(m, 0, crc)
		case TypeSwapTable:
			_, _ = ReadSwapTable(m, 0, crc)
		case TypeTerminal:
			_, _ = ReadTerminal(m, 0, crc)
		case TypeSignals:
			_, _ = ReadSignals(m, 0, crc)
		case TypeShm:
			_, _ = ReadShm(m, 0, crc)
		case TypePipe:
			_, _ = ReadPipe(m, 0, crc)
		case TypeSocket:
			_, _ = ReadSocket(m, 0, crc)
		case TypeCachePage:
			checkCachePageInto(t, m, data, crc)
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

// checkCachePageInto decodes the page-cache entry at 0 with ReadCachePage
// and with ReadCachePageInto through reused junk-filled buffers of every
// capacity junkCapacities offers: both must give the same entry or the
// same error, and a failed decode must leave the destination untouched.
func checkCachePageInto(t *testing.T, m *memBuf, data []byte, crc bool) {
	t.Helper()
	want, werr := ReadCachePage(m, 0, crc)
	junk := CachePage{FileOff: 0xDEAD, Frame: 0xBEEF, Dirty: true, Bytes: 7, Next: 0xF00D}
	for _, buf := range junkCapacities(data) {
		for pass := 0; pass < 2; pass++ {
			got := junk
			err := ReadCachePageInto(m, 0, crc, &got, &buf)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("cap %d pass %d: error %v, ReadCachePage gave %v", cap(buf), pass, err, werr)
			case err != nil && err.Error() != werr.Error():
				t.Fatalf("cap %d pass %d: error %q, ReadCachePage gave %q", cap(buf), pass, err, werr)
			case err != nil && got != junk:
				t.Fatalf("cap %d pass %d: failed decode wrote %+v", cap(buf), pass, got)
			case err == nil && got != *want:
				t.Fatalf("cap %d pass %d: entry %+v, ReadCachePage gave %+v", cap(buf), pass, got, *want)
			}
		}
	}
}
