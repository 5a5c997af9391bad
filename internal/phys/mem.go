// Package phys models the machine's physical memory: fixed-size frames
// with per-frame write protection and ownership tags. Memory is sparse: a
// frame gets its storage the first time a write puts a non-zero byte on it
// or it is aliased, and a frame without storage reads as zeros, so a
// machine boot costs its frame table rather than its whole RAM, and a page
// that only ever held zeros costs nothing.
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
	// frames holds each frame's storage, allocated by page on the first
	// write that puts a non-zero byte on the frame, or on its first alias;
	// a nil entry has only ever been written zeros and reads as zeros.
	// A View shares all three slices with its parent.
	frames []*[PageSize]byte
	prot   []bool
	kind   []FrameKind

	// stats counts the bytes each call asks for, whether or not its
	// frames have storage. Frame() aliasing deliberately bypasses it: it
	// is a kernel-internal fast path, and the counters model the explicit
	// memory bus traffic only. The counters are plain fields with the
	// frame table's one-writer rule: only the goroutine that owns the
	// machine, or a resurrection commit holding the pass's mutex, counts
	// here. Each resurrection scan worker counts in its own View, which
	// the pass folds back with Absorb in commit order.
	stats Stats
}

// NewMem installs size bytes of physical memory. Size is rounded down to a
// whole number of frames; at least one frame is installed.
func NewMem(size int) *Mem {
	frames := size / PageSize
	if frames < 1 {
		frames = 1
	}
	return &Mem{
		frames: make([]*[PageSize]byte, frames),
		prot:   make([]bool, frames),
		kind:   make([]FrameKind, frames),
	}
}

// Size returns the installed physical memory in bytes.
func (m *Mem) Size() int { return len(m.frames) * PageSize }

// NumFrames returns the number of installed frames.
func (m *Mem) NumFrames() int { return len(m.frames) }

// FrameOf returns the frame number containing addr.
func FrameOf(addr uint64) int { return int(addr / PageSize) }

// FrameAddr returns the physical address of the first byte of frame f.
func FrameAddr(f int) uint64 { return uint64(f) * PageSize }

// View returns a Mem that shares m's frames, protection and kinds, in both
// directions, but owns its counters, which start at zero. A resurrection
// scan worker reads the dead image through a view so that it counts
// without atomics and without racing the commits; Absorb folds the counts
// back.
func (m *Mem) View() *Mem {
	return &Mem{frames: m.frames, prot: m.prot, kind: m.kind}
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

// page returns frame f's storage, allocating it zeroed on first use. A
// frame's storage is never replaced or dropped, so the slice Frame returns
// stays an alias of the frame for the Mem's lifetime.
//
// The check-then-set takes no lock because a Mem and its views have one
// writer at a time. Only writes with a non-zero byte for f, and Frame, reach
// page; reads never do.
// During a streamed resurrection pass the scan workers only read, and the
// commits, the only writers, run one at a time under the pass's mutex. The
// campaign pool gives each worker its own machine.
func (m *Mem) page(f int) *[PageSize]byte {
	p := m.frames[f]
	if p == nil {
		p = new([PageSize]byte)
		m.frames[f] = p
	}
	return p
}

// ReadAt copies len(buf) bytes starting at addr into buf. Bytes of frames
// without storage read as zeros.
func (m *Mem) ReadAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += int64(len(buf))
	for len(buf) > 0 {
		f, off := FrameOf(addr), int(addr%PageSize)
		var n int
		if p := m.frames[f]; p != nil {
			n = copy(buf, p[off:])
		} else {
			n = min(len(buf), PageSize-off)
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteAt copies buf into memory at addr, honoring write protection: if any
// touched frame is protected the write is not performed and a
// *ProtectionFault is returned. A zero-length write touches the frame that
// holds addr, if there is one. The part of buf that lands on a frame without
// storage gives it storage only if it holds a non-zero byte; all zeros there
// change nothing, yet the write counts in full.
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
		f, off := FrameOf(addr), int(addr%PageSize)
		n := min(len(buf), PageSize-off)
		if m.frames[f] != nil || !PageIsZero(buf[:n]) {
			copy(m.page(f)[off:], buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit word, counted as one 8-byte ReadAt.
// An aligned word lies in one frame and is read there directly; only an
// unaligned one goes through ReadAt.
func (m *Mem) ReadU64(addr uint64) (uint64, error) {
	if addr%8 != 0 {
		var b [8]byte
		if err := m.ReadAt(addr, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	f := addr / PageSize
	if f >= uint64(len(m.frames)) {
		return 0, ErrOutOfRange
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += 8
	p := m.frames[f]
	if p == nil {
		return 0, nil
	}
	return binary.LittleEndian.Uint64(p[addr%PageSize:]), nil
}

// WriteU64 writes a little-endian 64-bit word, honoring protection and
// counted as one 8-byte WriteAt. An aligned word lies in one frame and is
// written there directly; only an unaligned one goes through WriteAt. Like
// WriteAt, a zero word gives a frame without storage none.
func (m *Mem) WriteU64(addr uint64, v uint64) error {
	if addr%8 != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return m.WriteAt(addr, b[:])
	}
	f := addr / PageSize
	if f >= uint64(len(m.frames)) {
		return ErrOutOfRange
	}
	if m.prot[f] {
		m.stats.ProtFaults++
		return &ProtectionFault{Addr: addr, Frame: int(f)}
	}
	m.stats.WriteOps++
	m.stats.WriteBytes += 8
	if v != 0 || m.frames[f] != nil {
		binary.LittleEndian.PutUint64(m.page(int(f))[addr%PageSize:], v)
	}
	return nil
}

// Frame returns the memory of frame f as a slice aliasing the underlying
// storage, allocating that storage if the frame was never written. Mutating
// the slice bypasses protection; it is intended for kernel-internal fast
// paths that have already checked ownership.
func (m *Mem) Frame(f int) ([]byte, error) {
	if f < 0 || f >= m.NumFrames() {
		return nil, ErrOutOfRange
	}
	return m.page(f)[:], nil
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

// Zero clears frame f, honoring protection. A frame without storage is
// already zero and keeps none.
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
	if p := m.frames[f]; p != nil {
		clear(p[:])
	}
	return nil
}

// zeroPage is the all-zero frame PageIsZero compares against.
var zeroPage [PageSize]byte

// PageIsZero reports whether every byte of b is zero: the resurrection
// scan's elision test and WriteAt's no-storage test. It compares PageSize
// chunks against a static zero page, so the comparison runs at memcmp
// speed; a partially-zero page (any nonzero byte, even the last one) is not
// elidable.
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
