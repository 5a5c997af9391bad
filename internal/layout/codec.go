package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// errShort is the internal signal that a payload ended before a field; it is
// converted to a CorruptionError by record decoders.
var errShort = errors.New("layout: payload truncated")

// writer builds a record's little-endian payload field by field after the
// header room newRecord leaves at start.
type writer struct {
	buf   []byte
	start int
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// str writes a 16-bit length-prefixed string, truncating at MaxString.
func (w *writer) str(s string) {
	if len(s) > MaxString {
		s = s[:MaxString]
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// MaxString bounds string fields (file paths, process names) in records.
const MaxString = 4096

// reader consumes little-endian payloads with bounds checking; any read past
// the end returns errShort instead of panicking, because decoders routinely
// run over fault-injected bytes.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) remain() int { return len(r.buf) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remain() < n {
		r.err = errShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) boolean() bool { return r.u8() != 0 }

// str reads a 16-bit length-prefixed string over old, the field's value
// before the decode: when the string's bytes equal old it returns old and
// allocates nothing. Strings are immutable, so the result is the same value
// either way.
func (r *reader) str(old string) string {
	n := int(r.u16())
	if r.err != nil {
		return ""
	}
	if n > MaxString {
		r.err = fmt.Errorf("layout: string length %d exceeds limit", n)
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	if string(b) == old {
		return old
	}
	return string(b)
}

// finish converts any accumulated decode error into a CorruptionError and
// rejects trailing garbage, which catches truncation-style corruption that
// CRC-off mode would otherwise miss.
func (r *reader) finish(addr uint64, t Type) error {
	if r.err != nil {
		return &CorruptionError{Addr: addr, Want: t, Reason: r.err.Error()}
	}
	if r.remain() != 0 {
		return &CorruptionError{Addr: addr, Want: t, Reason: fmt.Sprintf("%d trailing bytes", r.remain())}
	}
	return nil
}
