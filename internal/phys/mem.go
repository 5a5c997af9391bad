// Package phys models the machine's physical memory: a flat byte array
// divided into fixed-size frames with per-frame write protection and
// ownership tags.
//
// Everything that matters for Otherworld lives here as raw bytes — the main
// kernel's heap records, page tables, kernel stacks, user pages, the page
// cache, and the protected crash-kernel image. Fault injection mutates these
// bytes directly, and the crash kernel later re-parses them during
// resurrection, so corruption propagates between the two exactly as it does
// between a crashing Linux kernel and KDump's capture kernel in the paper.
package phys

import (
	"errors"
	"fmt"
	"sync/atomic"
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

// Mem is the machine's physical memory.
type Mem struct {
	data []byte
	prot []bool
	kind []FrameKind

	// Access counters are atomics so the resurrection scan pool's
	// concurrent readers can count without a lock. Frame() aliasing
	// deliberately bypasses them: it is a kernel-internal fast path, and
	// the counters model the explicit memory bus traffic only.
	readOps    atomic.Int64
	readBytes  atomic.Int64
	writeOps   atomic.Int64
	writeBytes atomic.Int64
	protFaults atomic.Int64
}

// NewMem installs size bytes of physical memory. Size is rounded down to a
// whole number of frames; at least one frame is installed.
func NewMem(size int) *Mem {
	frames := size / PageSize
	if frames < 1 {
		frames = 1
	}
	return &Mem{
		data: make([]byte, frames*PageSize),
		prot: make([]bool, frames),
		kind: make([]FrameKind, frames),
	}
}

// Size returns the installed physical memory in bytes.
func (m *Mem) Size() int { return len(m.data) }

// NumFrames returns the number of installed frames.
func (m *Mem) NumFrames() int { return len(m.prot) }

// FrameOf returns the frame number containing addr.
func FrameOf(addr uint64) int { return int(addr / PageSize) }

// FrameAddr returns the physical address of the first byte of frame f.
func FrameAddr(f int) uint64 { return uint64(f) * PageSize }

// ReadAt copies len(buf) bytes starting at addr into buf.
func (m *Mem) ReadAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	m.readOps.Add(1)
	m.readBytes.Add(int64(len(buf)))
	copy(buf, m.data[addr:])
	return nil
}

// WriteAt copies buf into memory at addr, honoring write protection: if any
// touched frame is protected the write is not performed and a
// *ProtectionFault is returned.
func (m *Mem) WriteAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	first, last := FrameOf(addr), FrameOf(addr+uint64(len(buf))-1)
	if len(buf) == 0 {
		last = first
	}
	for f := first; f <= last; f++ {
		if m.prot[f] {
			m.protFaults.Add(1)
			return &ProtectionFault{Addr: addr, Frame: f}
		}
	}
	m.writeOps.Add(1)
	m.writeBytes.Add(int64(len(buf)))
	copy(m.data[addr:], buf)
	return nil
}

// ReadU64 reads a little-endian 64-bit word.
func (m *Mem) ReadU64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := m.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word, honoring protection.
func (m *Mem) WriteU64(addr uint64, v uint64) error {
	var b [8]byte
	putLeU64(b[:], v)
	return m.WriteAt(addr, b[:])
}

// Frame returns the memory of frame f as a slice aliasing the underlying
// storage. Mutating the slice bypasses protection; it is intended for
// kernel-internal fast paths that have already checked ownership.
func (m *Mem) Frame(f int) ([]byte, error) {
	if f < 0 || f >= m.NumFrames() {
		return nil, ErrOutOfRange
	}
	base := FrameAddr(f)
	return m.data[base : base+PageSize : base+PageSize], nil
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

// Zero clears frame f, honoring protection.
func (m *Mem) Zero(f int) error {
	if f < 0 || f >= m.NumFrames() {
		return ErrOutOfRange
	}
	if m.prot[f] {
		m.protFaults.Add(1)
		return &ProtectionFault{Addr: FrameAddr(f), Frame: f}
	}
	m.writeOps.Add(1)
	m.writeBytes.Add(int64(PageSize))
	base := FrameAddr(f)
	clear(m.data[base : base+PageSize])
	return nil
}

// PageIsZero reports whether every byte of b is zero — the resurrection
// fast path's elision test. It compares in word-sized chunks the way a real
// kernel's zero-detect loop would; a partially-zero page (any nonzero byte,
// even the last one) is not elidable.
func PageIsZero(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if b[i]|b[i+1]|b[i+2]|b[i+3]|b[i+4]|b[i+5]|b[i+6]|b[i+7] != 0 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}

// Stats returns a point-in-time copy of the access counters. Because the
// scan pool issues an identical read set at any worker count, every field
// is itself deterministic across pool widths.
func (m *Mem) Stats() Stats {
	return Stats{
		ReadOps:    m.readOps.Load(),
		ReadBytes:  m.readBytes.Load(),
		WriteOps:   m.writeOps.Load(),
		WriteBytes: m.writeBytes.Load(),
		ProtFaults: m.protFaults.Load(),
	}
}

func (m *Mem) check(addr uint64, n int) error {
	if n < 0 || addr > uint64(len(m.data)) || addr+uint64(n) > uint64(len(m.data)) {
		return ErrOutOfRange
	}
	return nil
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
