// Package phys models the machine's physical memory: fixed-size frames
// with per-frame write protection and ownership tags. Memory is sparse and
// stores what was written: each frame is eight 512 B sectors, a sector gets
// storage the first time a write puts a non-zero byte on it, and a sector
// or frame without storage reads as zeros. Frames keep their storage
// records in chunks of 16, and a chunk exists only once a write stored a
// non-zero byte in it. A machine boot therefore costs a table of chunk
// pointers rather than its whole RAM, a page that only ever held zeros
// costs nothing, and a page table or a record page costs the sectors its
// few words landed on. A frame neither stored nor generated whose first
// storing write puts a non-zero byte on every sector (a full user page) is
// stored as one page instead, so bulk copies of it stay single. The
// sectors Generate gives a Pattern (kernel text, a kernel stack past its
// saved context) store nothing until they are written: their bytes are
// computed from their addresses whenever they are read, and a write gives
// storage only to the sectors it lands on, so a kernel stack on a frame
// without storage costs the one sector its context is saved in. Zero
// keeps a frame's owned storage, so a stack on a frame that already has
// some (one that once held a user page, say) keeps it, and the pattern is
// written into it.
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

// SectorSize is the unit of frame storage and of generation: the 512 B
// sector fs.FlatFS stores files in.
const SectorSize = 512

// sectorsPerFrame is the number of sectors in a frame.
const sectorsPerFrame = PageSize / SectorSize

// AllSectors is the sector set of a whole frame, in the answers of
// Generated: bit i stands for sector i.
const AllSectors uint8 = 1<<sectorsPerFrame - 1

// sectorsOf returns the set of the sectors that the n > 0 bytes from off,
// inside one frame, touch.
func sectorsOf(off, n int) uint8 {
	return AllSectors << (off / SectorSize) & (AllSectors >> (sectorsPerFrame - 1 - (off+n-1)/SectorSize))
}

// chunkFrames is the number of frame records a chunk holds. After a crash,
// a recovery and a serve, sixteen gave the smallest table and chunks on
// the 8-MySQL bench machine, 32 on the WAL probe's and eight on the
// 256-process fleet's, so sixteen is the middle ground.
const chunkFrames = 16

// chunk is the storage records of chunkFrames consecutive frames, inline,
// so finding a frame's record costs no load beyond the chunk pointer. A
// chunk is allocated by the first write that stores a non-zero byte in
// one of its frames or the first Generate that generates a sector of one,
// and is never replaced or dropped.
type chunk [chunkFrames]frame

// frame is one frame's storage record: eight sector pointers, a page, a
// pattern and the set of sectors the pattern generates. Each sector is in
// one of three states.
//
//   - Empty: no storage and not generated. It has only ever been written
//     zeros and reads as zeros; the first write that puts a non-zero byte
//     on it gives it storage.
//   - Owned: it has storage of its own, a sector or a slice of the page.
//   - Generated: its bit is set in genMask. It has no storage and reads as
//     the pattern's bytes; the first write that lands on it gives it
//     storage filled from the pattern first, and Zero empties it.
//
// A frame has one page only if it was empty, with no storage and no
// generated sector, and its first storing write put a non-zero byte on
// every sector: it is dense, and its sectors are the page's eight slices,
// so word accesses take the same path and bulk copies use the page
// directly. Owned storage never changes representation, and its sectors
// and page are never replaced or dropped: a sparse frame that fills up,
// and a generated frame written all over, keep their sectors. A frame
// holds one pattern: gen is nil exactly when no sector is generated.
//
// Storage is added without a lock because a Mem and its views have one
// writer at a time. During a resurrection pass the scan workers only read,
// and the commits, the only writers, run one at a time on the machine's
// goroutine once every scan has finished. The campaign pool gives each
// worker its own machine.
type frame struct {
	sec     [sectorsPerFrame]*[SectorSize]byte
	page    *[PageSize]byte
	gen     *Pattern
	genMask uint8
}

// owned reports whether the frame has storage of its own: a sector.
func (fr *frame) owned() bool { return fr.sec != [sectorsPerFrame]*[SectorSize]byte{} }

// privatize gives each generated sector of touched storage of its own,
// filled from the pattern, which then no longer generates it.
func (fr *frame) privatize(base uint64, touched uint8) {
	touched &= fr.genMask
	for s := range fr.sec {
		if touched&(1<<s) != 0 {
			sec := new([SectorSize]byte)
			fr.gen.fill(base+uint64(s*SectorSize), sec[:])
			fr.sec[s] = sec
		}
	}
	if fr.genMask &^= touched; fr.genMask == 0 {
		fr.gen = nil
	}
}

// setPage makes p the frame's owned page, its sectors p's slices.
func (fr *frame) setPage(p *[PageSize]byte) {
	fr.page = p
	for i := range fr.sec {
		fr.sec[i] = (*[SectorSize]byte)(p[i*SectorSize:])
	}
}

// storedSectors returns how many of the sectors that src, written at off,
// lands on get a non-zero byte, counting until both a zero and a non-zero
// sector part have been seen: 0 if none, sectorsPerFrame if all.
func storedSectors(off int, src []byte) int {
	stored, zero := 0, false
	for len(src) > 0 && (stored == 0 || !zero) {
		n := min(len(src), SectorSize-off%SectorSize)
		if PageIsZero(src[:n]) {
			zero = true
		} else {
			stored++
		}
		src, off = src[n:], off+n
	}
	return stored
}

// unstored returns the bytes from off to the frame's next sector that is
// stored or generated, or to its end.
func (fr *frame) unstored(off int) int {
	i := off / SectorSize
	for i < sectorsPerFrame && fr.sec[i] == nil && fr.genMask&(1<<i) == 0 {
		i++
	}
	return i*SectorSize - off
}

// generatedRun returns the bytes from off, in a generated sector, to the
// end of the run of generated sectors that holds it.
func (fr *frame) generatedRun(off int) int {
	i := off/SectorSize + 1
	for i < sectorsPerFrame && fr.genMask&(1<<i) != 0 {
		i++
	}
	return i*SectorSize - off
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
		i := off / SectorSize
		n := min(len(src), SectorSize-off%SectorSize)
		s := fr.sec[i]
		if s == nil && !PageIsZero(src[:n]) {
			s = new([SectorSize]byte)
			fr.sec[i] = s
		}
		if s != nil {
			copy(s[off%SectorSize:], src[:n])
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

// Pattern is what a generated sector holds: a pure function of the
// physical address. A sector Generate gives a Pattern reads as the
// function's bytes until it is written, and memory stores none of them
// before that. Patterns are told apart by identity, so ReadGenerated and
// Generated name the very Pattern that Generate was given.
type Pattern struct {
	at func(addr uint64) byte
}

// NewPattern returns the Pattern whose byte at each address is at(addr).
// at must be pure and safe to call from several goroutines at once: every
// read of a generated sector, through any View, calls it again.
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
// one piece, and the bytes of generated sectors are computed into buf.
func (m *Mem) ReadAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += int64(len(buf))
	for len(buf) > 0 {
		var n int
		fr, off := m.record(FrameOf(addr)), int(addr%PageSize)
		switch s := off / SectorSize; {
		case fr == nil:
			n = min(len(buf), PageSize-off)
			clear(buf[:n])
		case fr.page != nil:
			n = copy(buf, fr.page[off:])
		case fr.sec[s] != nil:
			n = copy(buf, fr.sec[s][off%SectorSize:])
		case fr.genMask&(1<<s) != 0:
			n = min(len(buf), fr.generatedRun(off))
			fr.gen.fill(addr, buf[:n])
		default:
			n = min(len(buf), fr.unstored(off))
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadGenerated counts a read of the n bytes at addr exactly as ReadAt
// would, copying nothing, and reports whether p still generates every
// sector those bytes touch, in which case they are p's bytes. It counts
// the read whatever it reports, so a caller that learns some sector was
// written copies it with CopyFrame, which counts nothing, and its read is
// still counted once. Out of range it counts nothing and reports false.
func (m *Mem) ReadGenerated(addr uint64, n int, p *Pattern) bool {
	if m.check(addr, n) != nil {
		return false
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += int64(n)
	for f, off := FrameOf(addr), int(addr%PageSize); n > 0; f, off = f+1, 0 {
		k := min(n, PageSize-off)
		fr := m.record(f)
		if fr == nil || fr.gen != p {
			return false
		}
		if fr.genMask != AllSectors { // else p generates every sector
			if want := sectorsOf(off, k); fr.genMask&want != want {
				return false
			}
		}
		n -= k
	}
	return true
}

// Generated returns the set of frame f's sectors that p still generates,
// bit i for sector i: AllSectors for a frame p generates whole. A sector
// is generated by p once Generate gave it p, until something writes or
// zeroes it or generates it with another pattern. Like Kind, it counts
// nothing, and out of range it returns no sector.
func (m *Mem) Generated(f int, p *Pattern) uint8 {
	if f < 0 || f >= m.NumFrames() {
		return 0
	}
	if fr := m.record(f); fr != nil && fr.gen == p {
		return fr.genMask
	}
	return 0
}

// WriteAt copies buf into memory at addr, honoring write protection: if any
// touched frame is protected the write is not performed and a
// *ProtectionFault is returned. A zero-length write touches the frame that
// holds addr, if there is one. The part of buf that lands on a sector
// without storage gives it storage only if it holds a non-zero byte; all
// zeros there change nothing, yet the write counts in full. A generated
// sector the write lands on gets storage filled from its pattern first.
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
		case fr == nil || fr.sec[addr/SectorSize%sectorsPerFrame] == nil:
			// No storage here yet, or a generated sector.
			n = min(len(buf), PageSize-int(addr%PageSize))
			m.write(FrameOf(addr), int(addr%PageSize), buf[:n])
		case fr.page != nil:
			n = copy(fr.page[addr%PageSize:], buf)
		default:
			n = copy(fr.sec[addr/SectorSize%sectorsPerFrame][addr%SectorSize:], buf)
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// write copies src, which is not empty, onto frame f at off; src must not
// run past the frame. The generated sectors it touches first get storage
// filled from their pattern. An empty frame gets storage only if src holds
// a non-zero byte: one page if src puts one on every sector, sectors
// otherwise.
func (m *Mem) write(f, off int, src []byte) {
	fr := m.record(f)
	switch {
	case fr != nil && fr.genMask != 0:
		fr.privatize(FrameAddr(f), sectorsOf(off, len(src)))
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

// Generate writes p's bytes over frame f from offset off to the frame's
// end, with the effect, the counts and the protection check of a WriteAt
// of them, but each sector it covers whole that has no storage of its own
// stores none: it reads as p until a write lands on it, which gives it
// storage filled from p, its frame's Zero, which empties it, or another
// Generate. A sector it covers in part, and one with owned storage, is
// written as WriteAt would write it. A frame holds one pattern, so a
// sector that another pattern generates and Generate does not cover gets
// storage filled from that pattern first. off must lie inside the frame,
// and p must not be nil.
func (m *Mem) Generate(f, off int, p *Pattern) error {
	if f < 0 || f >= m.NumFrames() || off < 0 || off >= PageSize {
		return ErrOutOfRange
	}
	if m.prot[f] {
		m.stats.ProtFaults++
		return &ProtectionFault{Addr: FrameAddr(f) + uint64(off), Frame: f}
	}
	m.stats.WriteOps++
	m.stats.WriteBytes += int64(PageSize - off)
	base := FrameAddr(f)
	whole := (off + SectorSize - 1) / SectorSize // the first sector covered whole
	if head := whole*SectorSize - off; head > 0 {
		var b [SectorSize]byte
		p.fill(base+uint64(off), b[:head])
		m.write(f, off, b[:head])
	}
	if whole == sectorsPerFrame {
		return nil
	}
	covered := AllSectors << whole
	fr := m.store(f)
	for s := whole; s < sectorsPerFrame; s++ {
		if sec := fr.sec[s]; sec != nil {
			p.fill(base+uint64(s*SectorSize), sec[:])
			covered &^= 1 << s
		}
	}
	if covered == 0 {
		return nil
	}
	if rest := fr.genMask &^ covered; rest != 0 && fr.gen != p {
		fr.privatize(base, rest)
	}
	fr.gen = p
	fr.genMask |= covered
	return nil
}

// ReadU64 reads a little-endian 64-bit word, counted as one 8-byte ReadAt.
// An aligned word lies in one sector and is read there directly, or
// computed from a generated sector's pattern; only an unaligned one goes
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
	i := addr / SectorSize % sectorsPerFrame
	if s := fr.sec[i]; s != nil {
		return binary.LittleEndian.Uint64(s[addr%SectorSize:]), nil
	}
	if fr.genMask&(1<<i) == 0 {
		return 0, nil
	}
	var b [8]byte
	fr.gen.fill(addr, b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word, honoring protection and
// counted as one 8-byte WriteAt. An aligned word lies in one sector and,
// once the sector has storage, is written there directly; only an
// unaligned one goes through WriteAt. Like WriteAt, a zero word gives a
// sector without storage none, and a generated sector gets storage filled
// from its pattern first.
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
		if s := c[f%chunkFrames].sec[addr/SectorSize%sectorsPerFrame]; s != nil {
			binary.LittleEndian.PutUint64(s[addr%SectorSize:], v)
			return nil
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.write(int(f), int(addr%PageSize), b[:])
	return nil
}

// CopyFrame copies frame f's bytes from offset off into buf, as many as fit
// before the frame's end: the whole frame when off is 0 and buf holds
// PageSize bytes. Like ReadAt it gives no sector storage, but it counts no
// traffic; it is intended for kernel-internal fast paths that have already
// checked ownership, such as handing a page to swap.
func (m *Mem) CopyFrame(f, off int, buf []byte) error {
	if f < 0 || f >= m.NumFrames() || off < 0 || off > PageSize {
		return ErrOutOfRange
	}
	// A throwaway view shares the storage but not m's counters.
	v := Mem{chunks: m.chunks, prot: m.prot}
	return v.ReadAt(FrameAddr(f)+uint64(off), buf[:min(len(buf), PageSize-off)])
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
// place, a sector without storage is already zero and keeps none, and the
// frame's generated sectors stop being generated and are empty.
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
	if fr := m.record(f); fr != nil {
		for _, s := range fr.sec {
			if s != nil {
				clear(s[:])
			}
		}
		fr.gen, fr.genMask = nil, 0
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
