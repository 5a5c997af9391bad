// Package phys is a stub of the real physical-memory package, providing
// the method surface the analyzers recognise by type.
package phys

import "errors"

// ErrOutOfRange reports an access beyond installed memory.
var ErrOutOfRange = errors.New("phys: address out of range")

// PageSize mirrors the real frame size.
const PageSize = 4096

// Mem mimics the real phys.Mem.
type Mem struct {
	data []byte
}

// NewMem installs n bytes of memory.
func NewMem(n int) *Mem { return &Mem{data: make([]byte, n)} }

// ReadAt copies len(buf) bytes at addr into buf.
func (m *Mem) ReadAt(addr uint64, buf []byte) error {
	if int(addr)+len(buf) > len(m.data) {
		return ErrOutOfRange
	}
	copy(buf, m.data[addr:])
	return nil
}

// ReadU64 reads a little-endian word.
func (m *Mem) ReadU64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := m.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteAt copies buf into memory at addr.
func (m *Mem) WriteAt(addr uint64, buf []byte) error {
	if int(addr)+len(buf) > len(m.data) {
		return ErrOutOfRange
	}
	copy(m.data[addr:], buf)
	return nil
}

// CopyFrame copies frame f's bytes from offset off into buf without
// counting the read.
func (m *Mem) CopyFrame(f, off int, buf []byte) error {
	base := f * PageSize
	if base < 0 || base+PageSize > len(m.data) || off < 0 || off > PageSize {
		return ErrOutOfRange
	}
	copy(buf, m.data[base+off:base+PageSize])
	return nil
}

// Pattern mimics the real phys.Pattern.
type Pattern struct{}

// ReadGenerated counts a read of the n bytes at addr and reports whether
// p still generates them.
func (m *Mem) ReadGenerated(addr uint64, n int, p *Pattern) bool {
	return int(addr)+n <= len(m.data) && p != nil
}

// SetKind tags frame f.
func (m *Mem) SetKind(f int, kind uint8) error {
	if f < 0 || (f+1)*PageSize > len(m.data) {
		return ErrOutOfRange
	}
	return nil
}

// Protect toggles write protection on frame f.
func (m *Mem) Protect(f int, readOnly bool) error {
	if f < 0 || (f+1)*PageSize > len(m.data) {
		return ErrOutOfRange
	}
	return nil
}
