// Package resurrect exercises the crosskernel analyzer: direct phys.Mem
// reads are forbidden except from the owvet:reader-marked wrapper.
package resurrect

import "fixture/internal/phys"

// reader is the designated accounted accessor.
//
//owvet:reader
type reader struct {
	mem   *phys.Mem
	bytes int64
}

// ReadAt is the sanctioned wrapper: direct phys access here is exempt.
func (r *reader) ReadAt(addr uint64, buf []byte) error {
	r.bytes += int64(len(buf))
	return r.mem.ReadAt(addr, buf)
}

// word shows that every method of the marked type is exempt.
func (r *reader) word(addr uint64) (uint64, error) {
	r.bytes += 8
	return r.mem.ReadU64(addr)
}

// image mimics a crash-side type with a method named like a phys.Mem
// accessor: calling it must not trip the analyzer.
type image struct{}

// CopyFrame stands in for copying a captured frame.
func (im *image) CopyFrame(f int, buf []byte) error { return nil }

func copyFromImage(im *image, buf []byte) error {
	return im.CopyFrame(0, buf)
}

func parseDirect(m *phys.Mem) error {
	var b [8]byte
	return m.ReadAt(0, b[:]) // want `direct phys\.Mem\.ReadAt`
}

func wordDirect(m *phys.Mem) (uint64, error) {
	return m.ReadU64(8) // want `direct phys\.Mem\.ReadU64`
}

func copyFrameDirect(m *phys.Mem) ([]byte, error) {
	buf := make([]byte, phys.PageSize)
	return buf, m.CopyFrame(1, 0, buf) // want `direct phys\.Mem\.CopyFrame`
}

func readGeneratedDirect(m *phys.Mem, p *phys.Pattern) bool {
	return m.ReadGenerated(0, phys.PageSize, p) // want `direct phys\.Mem\.ReadGenerated`
}

func throughReader(r *reader, addr uint64) (uint64, error) {
	return r.word(addr)
}

// valueSmuggle captures the accessor as a method value: no CallExpr with a
// phys.Mem receiver ever appears, but the unaccounted read still happens.
func valueSmuggle(m *phys.Mem) error {
	f := m.ReadAt // want `method value phys\.Mem\.ReadAt`
	var b [8]byte
	return f(0, b[:])
}

// valueSmuggleU64 passes the method value onward instead of calling it.
func valueSmuggleU64(m *phys.Mem) func(uint64) (uint64, error) {
	return m.ReadU64 // want `method value phys\.Mem\.ReadU64`
}

// readerValue shows a method value of the sanctioned wrapper is fine.
func readerValue(r *reader) func(uint64, []byte) error {
	return r.ReadAt
}

// imageCopyValue shows a method value of a non-phys type is fine.
func imageCopyValue(im *image) func(int, []byte) error {
	return im.CopyFrame
}

// indexSalvageDirect mimics discovery salvaging the candidate index by
// reading the reservation bytes directly — bypassing the Table 4 byte
// accounting the counting reader exists for.
func indexSalvageDirect(m *phys.Mem, base uint64) (uint64, error) {
	return m.ReadU64(base) // want `direct phys\.Mem\.ReadU64`
}

// indexSalvageAccounted is the compliant shape: the index region's bytes
// flow through the counting reader like every other dead-kernel read.
func indexSalvageAccounted(r *reader, base uint64) (uint64, error) {
	return r.word(base)
}

func allowedValue(m *phys.Mem) func(uint64) (uint64, error) {
	//owvet:allow crosskernel: boot-time self-test probe, not dead-kernel parsing
	return m.ReadU64
}

func allowedProbe(m *phys.Mem) error {
	var b [4]byte
	//owvet:allow crosskernel: boot-time self-test probe, not dead-kernel parsing
	return m.ReadAt(4, b[:])
}
