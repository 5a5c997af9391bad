// Package phys models the machine's physical memory: fixed-size frames
// with per-frame write protection and ownership tags. Memory is sparse and
// stores what was written: each frame is eight 512 B sectors, a sector gets
// storage the first time a write puts a non-zero byte on it, and a sector
// or frame without storage reads as zeros. Frames keep their storage
// records in chunks of 16, and a chunk exists only once a write stored a
// non-zero byte in it. A machine boot therefore costs a table of chunk
// pointers rather than its whole RAM, a page that only ever held zeros
// costs nothing, and a page table or a record page costs the sectors its
// few words landed on. A frame whose first storing write puts a non-zero
// byte on every sector (a kernel stack, a full user page) is stored as one
// page instead, so bulk copies of it stay single, and a frame Generate
// gives a Pattern (kernel text) stores nothing until it is written: its
// bytes are computed from their addresses whenever they are read.
//
// Everything that matters for Otherworld lives here as raw bytes — the main
// kernel's heap records, page tables, kernel stacks, user pages, the page
// cache, and the protected crash-kernel image. Fault injection mutates these
// bytes directly, and the crash kernel later re-parses them during
// resurrection, so corruption propagates between the two exactly as it does
// between a crashing Linux kernel and KDump's capture kernel in the paper.
package phys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the frame size in bytes, matching the x86 4 KiB page the
// paper's implementation uses.
const PageSize = 4096

// FrameKind tags what a physical frame is currently used for. The tags are
// bookkeeping for accounting and fault-injection targeting; the memory
// itself is untyped bytes.
type FrameKind uint8

// Frame ownership tags.
const (
	// FrameFree is unallocated memory.
	FrameFree FrameKind = iota
	// FrameKernelText holds (simulated) kernel code.
	FrameKernelText
	// FrameKernelHeap holds kernel records: process descriptors, memory
	// region descriptors, file records and so on.
	FrameKernelHeap
	// FrameKernelStack holds a thread's kernel stack, including the saved
	// hardware context pushed on syscall entry and NMI halt.
	FrameKernelStack
	// FramePageTable holds page-directory or page-table pages.
	FramePageTable
	// FrameUser holds user process data.
	FrameUser
	// FramePageCache holds cached file pages.
	FramePageCache
	// FrameCrashImage holds the passive crash-kernel image; it is kept
	// write-protected while the main kernel runs (Section 3.1).
	FrameCrashImage
	// FrameReserved is reserved for the crash kernel's own working memory.
	FrameReserved
	// FrameSpeculated is a dead kernel's user frame kept alive by the lazy
	// resurrection install: a resurrected process's page table references it
	// copy-on-access until first-touch validation copies it out (or the
	// background sweeper does). Adopted by the crash kernel's allocator so
	// the morph never recycles it while a speculation still points at it.
	FrameSpeculated
)

var frameKindNames = [...]string{
	"free", "kernel-text", "kernel-heap", "kernel-stack",
	"page-table", "user", "page-cache", "crash-image", "reserved",
	"speculated",
}

func (k FrameKind) String() string {
	if int(k) < len(frameKindNames) {
		return frameKindNames[k]
	}
	return fmt.Sprintf("FrameKind(%d)", uint8(k))
}

// ErrOutOfRange reports an access beyond the installed physical memory.
var ErrOutOfRange = errors.New("phys: address out of range")

// ProtectionFault is returned when a write touches a write-protected frame.
// The machine turns it into a page-fault-style kernel panic: this is how
// wild writes into the crash-kernel image are *detected* rather than
// silently corrupting the image (Section 3.1).
type ProtectionFault struct {
	Addr  uint64
	Frame int
}

func (f *ProtectionFault) Error() string {
	return fmt.Sprintf("phys: write to protected frame %d (addr %#x)", f.Frame, f.Addr)
}

// Stats is a point-in-time copy of a Mem's access counters.
type Stats struct {
	// ReadOps/ReadBytes count ReadAt (and ReadU64) traffic; WriteOps/
	// WriteBytes count successful WriteAt/WriteU64/Zero traffic.
	ReadOps    int64
	ReadBytes  int64
	WriteOps   int64
	WriteBytes int64
	// ProtFaults counts writes refused by frame protection — the
	// hardware-trap analogue that catches wild writes into the
	// crash-kernel image.
	ProtFaults int64
}

// Mem is the machine's physical memory, or a View of it.
type Mem struct {
	// chunks holds the frames' storage records, chunkFrames to a chunk; a
	// nil chunk stands for chunkFrames frames that have only ever been
	// written zeros. The table's length is fixed when the Mem is made, so
	// a View shares it, and through it every frame's storage, with its
	// parent.
	chunks []*chunk
	// prot and kind are one entry a frame; their length is the number of
	// installed frames.
	prot []bool
	kind []FrameKind

	// stats counts the bytes each call asks for, whether or not its
	// sectors have storage. CopyFrame deliberately bypasses it: it is a
	// kernel-internal fast path, and the counters model the explicit
	// memory bus traffic only. The counters are plain fields with the
	// frame table's one-writer rule: only the goroutine that owns the
	// machine, which also runs a resurrection pass's commits, counts
	// here. Each resurrection scan worker counts in its own View, which
	// the pass folds back with Absorb in commit order.
	stats Stats
}

// sectorSize is the unit of frame storage: the 512 B sector fs.FlatFS
// stores files in.
const sectorSize = 512

// sectorsPerFrame is the number of sectors in a frame.
const sectorsPerFrame = PageSize / sectorSize

// chunkFrames is the number of frame records a chunk holds. After a crash,
// a recovery and a serve, sixteen gave the smallest table and chunks on
// the 8-MySQL bench machine, 32 on the WAL probe's and eight on the
// 256-process fleet's, so sixteen is the middle ground.
const chunkFrames = 16

// chunk is the storage records of chunkFrames consecutive frames, inline,
// so finding a frame's record costs no load beyond the chunk pointer. A
// chunk is allocated by the first write that stores a non-zero byte in
// one of its frames, and is never replaced or dropped.
type chunk [chunkFrames]frame

// frame is one frame's storage record: eight sector pointers, a page and a
// pattern. It is in one of four states.
//
//   - Empty (the zero record): the frame has only ever been written zeros
//     and reads as zeros.
//   - Sparse: no page; a nil sector has only ever been written zeros, and
//     each sector gets storage from the first write that puts a non-zero
//     byte on it.
//   - Dense: the frame's first storing write put a non-zero byte on every
//     sector, so it got one page, and its sectors are the page's eight
//     slices: word accesses take the same path, and bulk copies use the
//     page directly.
//   - Generated: no page and no sectors, only the Pattern Generate gave
//     it. Reads compute the pattern's bytes; the first write gives the
//     frame a private page filled from the pattern, which makes it dense,
//     and Zero empties it instead.
//
// Owned storage never changes representation, and its sectors and page
// are never replaced or dropped: a sparse frame that fills up keeps its
// sectors. A generated frame owns nothing to replace; it stops being
// generated at its first write, its Zero or another Generate.
//
// Storage is added without a lock because a Mem and its views have one
// writer at a time. During a resurrection pass the scan workers only read,
// and the commits, the only writers, run one at a time on the machine's
// goroutine once every scan has finished. The campaign pool gives each
// worker its own machine.
type frame struct {
	sec  [sectorsPerFrame]*[sectorSize]byte
	page *[PageSize]byte
	gen  *Pattern
}

// owned reports whether the frame has storage of its own: a sector.
func (fr *frame) owned() bool { return fr.sec != [sectorsPerFrame]*[sectorSize]byte{} }

// setPage makes p the frame's owned page, its sectors p's slices.
func (fr *frame) setPage(p *[PageSize]byte) {
	fr.page = p
	for i := range fr.sec {
		fr.sec[i] = (*[sectorSize]byte)(p[i*sectorSize:])
	}
}

// storedSectors returns how many of the sectors that src, written at off,
// lands on get a non-zero byte, counting until both a zero and a non-zero
// sector part have been seen: 0 if none, sectorsPerFrame if all.
func storedSectors(off int, src []byte) int {
	stored, zero := 0, false
	for len(src) > 0 && (stored == 0 || !zero) {
		n := min(len(src), sectorSize-off%sectorSize)
		if PageIsZero(src[:n]) {
			zero = true
		} else {
			stored++
		}
		src, off = src[n:], off+n
	}
	return stored
}

// unstored returns the bytes from off to the frame's next stored sector, or
// to its end.
func (fr *frame) unstored(off int) int {
	i := off / sectorSize
	for i < sectorsPerFrame && fr.sec[i] == nil {
		i++
	}
	return i*sectorSize - off
}

// write copies src onto the frame's owned storage at off; src must not run
// past the frame. Only a part of src that holds a non-zero byte gives its
// sector storage.
func (fr *frame) write(off int, src []byte) {
	if fr.page != nil {
		copy(fr.page[off:], src)
		return
	}
	for len(src) > 0 {
		i := off / sectorSize
		n := min(len(src), sectorSize-off%sectorSize)
		s := fr.sec[i]
		if s == nil && !PageIsZero(src[:n]) {
			s = new([sectorSize]byte)
			fr.sec[i] = s
		}
		if s != nil {
			copy(s[off%sectorSize:], src[:n])
		}
		src, off = src[n:], off+n
	}
}

// NewMem installs size bytes of physical memory. Size is rounded down to a
// whole number of frames; at least one frame is installed.
func NewMem(size int) *Mem {
	frames := size / PageSize
	if frames < 1 {
		frames = 1
	}
	return &Mem{
		chunks: make([]*chunk, (frames+chunkFrames-1)/chunkFrames),
		prot:   make([]bool, frames),
		kind:   make([]FrameKind, frames),
	}
}

// Size returns the installed physical memory in bytes.
func (m *Mem) Size() int { return len(m.prot) * PageSize }

// NumFrames returns the number of installed frames.
func (m *Mem) NumFrames() int { return len(m.prot) }

// FrameOf returns the frame number containing addr.
func FrameOf(addr uint64) int { return int(addr / PageSize) }

// FrameAddr returns the physical address of the first byte of frame f.
func FrameAddr(f int) uint64 { return uint64(f) * PageSize }

// Pattern is what a generated frame holds: a pure function of the physical
// address. A frame Generate gives a Pattern reads as the function's bytes
// until it is written, and memory stores none of them before that.
// Patterns are told apart by identity, so ReadGenerated and Generated name
// the very Pattern that Generate was given.
type Pattern struct {
	at func(addr uint64) byte
}

// NewPattern returns the Pattern whose byte at each address is at(addr).
// at must be pure and safe to call from several goroutines at once: every
// read of a generated frame, through any View, calls it again.
func NewPattern(at func(addr uint64) byte) *Pattern { return &Pattern{at: at} }

// fill writes the pattern's bytes for addr onward into dst.
func (p *Pattern) fill(addr uint64, dst []byte) {
	for i := range dst {
		dst[i] = p.at(addr + uint64(i))
	}
}

// record returns installed frame f's storage record, or nil if its chunk
// has none.
func (m *Mem) record(f int) *frame {
	if c := m.chunks[uint(f)/chunkFrames]; c != nil {
		return &c[uint(f)%chunkFrames]
	}
	return nil
}

// store returns installed frame f's storage record, allocating its chunk.
func (m *Mem) store(f int) *frame {
	c := m.chunks[uint(f)/chunkFrames]
	if c == nil {
		c = new(chunk)
		m.chunks[uint(f)/chunkFrames] = c
	}
	return &c[uint(f)%chunkFrames]
}

// View returns a Mem that shares m's frames, protection and kinds, in both
// directions, but owns its counters, which start at zero. A resurrection
// scan worker reads the dead image through a view so that it counts
// without atomics and without racing the commits; Absorb folds the counts
// back.
func (m *Mem) View() *Mem {
	return &Mem{chunks: m.chunks, prot: m.prot, kind: m.kind}
}

// Absorb adds v's counters to m's and zeroes v's, so a view absorbed twice
// counts its traffic once. The caller must own both counter sets: the
// view's worker has finished with it.
func (m *Mem) Absorb(v *Mem) {
	m.stats.ReadOps += v.stats.ReadOps
	m.stats.ReadBytes += v.stats.ReadBytes
	m.stats.WriteOps += v.stats.WriteOps
	m.stats.WriteBytes += v.stats.WriteBytes
	m.stats.ProtFaults += v.stats.ProtFaults
	v.stats = Stats{}
}

// ReadAt copies len(buf) bytes starting at addr into buf. Bytes of frames
// and sectors without storage read as zeros, a dense frame is copied in
// one piece, and a generated frame's bytes are computed into buf.
func (m *Mem) ReadAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += int64(len(buf))
	for len(buf) > 0 {
		var n int
		fr := m.record(FrameOf(addr))
		switch {
		case fr == nil:
			n = min(len(buf), PageSize-int(addr%PageSize))
			clear(buf[:n])
		case fr.page != nil:
			n = copy(buf, fr.page[addr%PageSize:])
		case fr.sec[addr/sectorSize%sectorsPerFrame] != nil:
			n = copy(buf, fr.sec[addr/sectorSize%sectorsPerFrame][addr%sectorSize:])
		case fr.gen != nil:
			n = min(len(buf), PageSize-int(addr%PageSize))
			fr.gen.fill(addr, buf[:n])
		default:
			n = min(len(buf), fr.unstored(int(addr%PageSize)))
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadGenerated counts a read of the n bytes at addr exactly as ReadAt
// would, copying nothing, and reports whether p still generates every
// frame those bytes touch, in which case they are p's bytes. It counts the
// read whatever it reports, so a caller that learns some frame was written
// copies that frame with CopyFrame, which counts nothing, and its read is
// still counted once. Out of range it counts nothing and reports false.
func (m *Mem) ReadGenerated(addr uint64, n int, p *Pattern) bool {
	if m.check(addr, n) != nil {
		return false
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += int64(n)
	for f := FrameOf(addr); n > 0 && FrameAddr(f) < addr+uint64(n); f++ {
		if !m.generated(f, p) {
			return false
		}
	}
	return true
}

// Generated reports whether frame f is still generated by p: Generate gave
// it p, and nothing has written, zeroed or generated it since. Like Kind,
// it counts nothing.
func (m *Mem) Generated(f int, p *Pattern) bool {
	return f >= 0 && f < m.NumFrames() && m.generated(f, p)
}

// generated is Generated for an installed frame.
func (m *Mem) generated(f int, p *Pattern) bool {
	fr := m.record(f)
	return p != nil && fr != nil && fr.gen == p
}

// WriteAt copies buf into memory at addr, honoring write protection: if any
// touched frame is protected the write is not performed and a
// *ProtectionFault is returned. A zero-length write touches the frame that
// holds addr, if there is one. The part of buf that lands on a sector
// without storage gives it storage only if it holds a non-zero byte; all
// zeros there change nothing, yet the write counts in full. A generated
// frame the write lands on gets a private page filled from its pattern
// first.
func (m *Mem) WriteAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	first, last := FrameOf(addr), FrameOf(addr+uint64(len(buf))-1)
	if len(buf) == 0 {
		last = min(first, m.NumFrames()-1)
	}
	for f := first; f <= last; f++ {
		if m.prot[f] {
			m.stats.ProtFaults++
			return &ProtectionFault{Addr: addr, Frame: f}
		}
	}
	m.stats.WriteOps++
	m.stats.WriteBytes += int64(len(buf))
	for len(buf) > 0 {
		var n int
		fr := m.record(FrameOf(addr))
		switch {
		case fr == nil || fr.sec[addr/sectorSize%sectorsPerFrame] == nil:
			// No storage here yet, or a generated frame.
			n = min(len(buf), PageSize-int(addr%PageSize))
			m.write(FrameOf(addr), int(addr%PageSize), buf[:n])
		case fr.page != nil:
			n = copy(fr.page[addr%PageSize:], buf)
		default:
			n = copy(fr.sec[addr/sectorSize%sectorsPerFrame][addr%sectorSize:], buf)
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// write copies src onto frame f at off; src must not run past the frame.
// A generated frame first gets a private page filled from its pattern. An
// empty frame gets storage only if src holds a non-zero byte: one page if
// src puts one on every sector, sectors otherwise.
func (m *Mem) write(f, off int, src []byte) {
	fr := m.record(f)
	switch {
	case fr != nil && fr.gen != nil:
		p := new([PageSize]byte)
		fr.gen.fill(FrameAddr(f), p[:])
		fr.gen = nil
		fr.setPage(p)
	case fr == nil || !fr.owned():
		stored := storedSectors(off, src)
		if stored == 0 {
			return
		}
		fr = m.store(f)
		if stored == sectorsPerFrame {
			fr.setPage(new([PageSize]byte))
		}
	}
	fr.write(off, src)
}

// Generate writes p's bytes over frame f with the effect, the counts and
// the protection check of a WriteAt of them, but where the frame has no
// storage of its own it stores none: the frame reads as p until its first
// write, which gives it a private page filled from p, its Zero, which
// empties it, or another Generate. A frame with owned storage is written
// as WriteAt would write it. p must not be nil.
func (m *Mem) Generate(f int, p *Pattern) error {
	if f < 0 || f >= m.NumFrames() {
		return ErrOutOfRange
	}
	if m.prot[f] {
		m.stats.ProtFaults++
		return &ProtectionFault{Addr: FrameAddr(f), Frame: f}
	}
	m.stats.WriteOps++
	m.stats.WriteBytes += PageSize
	if fr := m.record(f); fr != nil && fr.owned() {
		var page [PageSize]byte
		p.fill(FrameAddr(f), page[:])
		fr.write(0, page[:])
		return nil
	}
	*m.store(f) = frame{gen: p}
	return nil
}

// ReadU64 reads a little-endian 64-bit word, counted as one 8-byte ReadAt.
// An aligned word lies in one sector and is read there directly, or
// computed from a generated frame's pattern; only an unaligned one goes
// through ReadAt.
func (m *Mem) ReadU64(addr uint64) (uint64, error) {
	if addr%8 != 0 {
		var b [8]byte
		if err := m.ReadAt(addr, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	f := addr / PageSize
	if f >= uint64(len(m.prot)) {
		return 0, ErrOutOfRange
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += 8
	c := m.chunks[f/chunkFrames]
	if c == nil {
		return 0, nil
	}
	fr := &c[f%chunkFrames]
	s := fr.sec[addr/sectorSize%sectorsPerFrame]
	if s == nil {
		if fr.gen == nil {
			return 0, nil
		}
		var b [8]byte
		fr.gen.fill(addr, b[:])
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	return binary.LittleEndian.Uint64(s[addr%sectorSize:]), nil
}

// WriteU64 writes a little-endian 64-bit word, honoring protection and
// counted as one 8-byte WriteAt. An aligned word lies in one sector and,
// once the sector has storage, is written there directly; only an
// unaligned one goes through WriteAt. Like WriteAt, a zero word gives a
// sector without storage none, and a generated frame gets a private page
// filled from its pattern first.
func (m *Mem) WriteU64(addr uint64, v uint64) error {
	if addr%8 != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return m.WriteAt(addr, b[:])
	}
	f := addr / PageSize
	if f >= uint64(len(m.prot)) {
		return ErrOutOfRange
	}
	if m.prot[f] {
		m.stats.ProtFaults++
		return &ProtectionFault{Addr: addr, Frame: int(f)}
	}
	m.stats.WriteOps++
	m.stats.WriteBytes += 8
	if c := m.chunks[f/chunkFrames]; c != nil {
		if s := c[f%chunkFrames].sec[addr/sectorSize%sectorsPerFrame]; s != nil {
			binary.LittleEndian.PutUint64(s[addr%sectorSize:], v)
			return nil
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.write(int(f), int(addr%PageSize), b[:])
	return nil
}

// CopyFrame copies frame f into buf, as many bytes as fit: the whole frame
// when buf holds PageSize bytes. Like ReadAt it gives no sector storage,
// but it counts no traffic; it is intended for kernel-internal fast paths
// that have already checked ownership, such as handing a page to swap.
func (m *Mem) CopyFrame(f int, buf []byte) error {
	if f < 0 || f >= m.NumFrames() {
		return ErrOutOfRange
	}
	// A throwaway view shares the storage but not m's counters.
	v := Mem{chunks: m.chunks, prot: m.prot}
	return v.ReadAt(FrameAddr(f), buf[:min(len(buf), PageSize)])
}

// Protect sets or clears write protection on frame f.
func (m *Mem) Protect(f int, readOnly bool) error {
	if f < 0 || f >= m.NumFrames() {
		return ErrOutOfRange
	}
	m.prot[f] = readOnly
	return nil
}

// Protected reports whether frame f is write-protected.
func (m *Mem) Protected(f int) bool {
	if f < 0 || f >= m.NumFrames() {
		return false
	}
	return m.prot[f]
}

// SetKind records the ownership tag of frame f.
func (m *Mem) SetKind(f int, k FrameKind) error {
	if f < 0 || f >= m.NumFrames() {
		return ErrOutOfRange
	}
	m.kind[f] = k
	return nil
}

// Kind returns the ownership tag of frame f (FrameFree if out of range).
func (m *Mem) Kind(f int) FrameKind {
	if f < 0 || f >= m.NumFrames() {
		return FrameFree
	}
	return m.kind[f]
}

// CountKind returns the number of frames currently tagged k.
func (m *Mem) CountKind(k FrameKind) int {
	n := 0
	for _, fk := range m.kind {
		if fk == k {
			n++
		}
	}
	return n
}

// Zero clears frame f, honoring protection: stored sectors are cleared in
// place, a sector without storage is already zero and keeps none, and a
// generated frame stops being generated and is empty.
func (m *Mem) Zero(f int) error {
	if f < 0 || f >= m.NumFrames() {
		return ErrOutOfRange
	}
	if m.prot[f] {
		m.stats.ProtFaults++
		return &ProtectionFault{Addr: FrameAddr(f), Frame: f}
	}
	m.stats.WriteOps++
	m.stats.WriteBytes += PageSize
	switch fr := m.record(f); {
	case fr == nil:
	case fr.gen != nil:
		*fr = frame{}
	default:
		for _, s := range fr.sec {
			if s != nil {
				clear(s[:])
			}
		}
	}
	return nil
}

// zeroPage is the all-zero frame PageIsZero compares against.
var zeroPage [PageSize]byte

// PageIsZero reports whether every byte of b is zero: the resurrection
// scan's elision test and WriteAt's no-storage test for each sector. It
// compares PageSize chunks against a static zero page, so the comparison
// runs at memcmp speed; a partially-zero page (any nonzero byte, even the
// last one) is not elidable.
func PageIsZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), PageSize)
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// Stats returns a point-in-time copy of the access counters; a view's
// traffic shows once it is absorbed. Because the scan pool issues an
// identical read set at any worker count, every field is itself
// deterministic across pool widths.
func (m *Mem) Stats() Stats { return m.stats }

func (m *Mem) check(addr uint64, n int) error {
	size := uint64(m.Size())
	if n < 0 || addr > size || addr+uint64(n) > size {
		return ErrOutOfRange
	}
	return nil
}
