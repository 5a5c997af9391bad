// Package dump implements post-mortem analysis of KDump-style crash dumps:
// the sparse physical-memory images written by core.HandleFailureKDump.
// Because all kernel state lives as self-describing records at known
// anchors, a dump can be parsed offline into the same process inventory the
// crash kernel sees during resurrection — the debugging workflow that
// motivated KDump, reproduced on top of this repository's formats.
package dump

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// Image is a parsed sparse dump: a read-only view of the dead machine's
// physical memory. Missing (free) frames read as zeroes, exactly as the
// capture kernel skipped them.
type Image struct {
	frames map[uint64][]byte
	// MaxFrame is the highest frame present.
	MaxFrame uint64
}

// recordHeader is the sparse-dump framing: frame number (u64) + payload
// length (u32), then the payload.
const recordHeader = 12

// AppendFrame appends the sparse-dump record of one physical frame to dst:
// the header, then the frame's page as read from mem. The capture kernel
// writes one record per in-use frame; Parse reads them back.
func AppendFrame(dst []byte, mem layout.Reader, frame int) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(frame))
	dst = binary.LittleEndian.AppendUint32(dst, phys.PageSize)
	n := len(dst)
	dst = slices.Grow(dst, phys.PageSize)[:n+phys.PageSize]
	return dst, mem.ReadAt(phys.FrameAddr(frame), dst[n:])
}

// Parse decodes a sparse dump image.
func Parse(data []byte) (*Image, error) {
	img := &Image{frames: make(map[uint64][]byte)}
	off := 0
	for off < len(data) {
		if off+recordHeader > len(data) {
			return nil, fmt.Errorf("dump: truncated record header at %d", off)
		}
		frame := binary.LittleEndian.Uint64(data[off:])
		n := binary.LittleEndian.Uint32(data[off+8:])
		off += recordHeader
		if n > phys.PageSize {
			return nil, fmt.Errorf("dump: frame %d payload %d exceeds page size", frame, n)
		}
		if off+int(n) > len(data) {
			return nil, fmt.Errorf("dump: truncated frame %d payload", frame)
		}
		page := make([]byte, n)
		copy(page, data[off:off+int(n)])
		img.frames[frame] = page
		if frame > img.MaxFrame {
			img.MaxFrame = frame
		}
		off += int(n)
	}
	return img, nil
}

// Frames returns the number of captured frames.
func (img *Image) Frames() int { return len(img.frames) }

// ReadAt implements layout.Reader over the sparse image.
func (img *Image) ReadAt(addr uint64, buf []byte) error {
	for i := range buf {
		a := addr + uint64(i)
		frame := a / phys.PageSize
		off := a % phys.PageSize
		page, ok := img.frames[frame]
		if !ok || int(off) >= len(page) {
			buf[i] = 0
			continue
		}
		buf[i] = page[off]
	}
	return nil
}

// ProcInfo summarizes one process found in the dump.
type ProcInfo struct {
	PID       uint32
	Name      string
	Program   string
	CrashProc string
	// ResidentPages / SwappedPages from walking the page tables.
	ResidentPages int
	SwappedPages  int
	// OpenFiles lists path:offset pairs.
	OpenFiles []string
	// HasTerminal, Sockets, Pipes, ShmSegments summarize resources.
	HasTerminal bool
	Sockets     int
	Pipes       int
	ShmSegments int
	// InSyscall reports the thread died inside a system call.
	InSyscall bool
	SyscallNo uint16
}

// Report is the post-mortem inventory.
type Report struct {
	BootCount uint32
	Procs     []ProcInfo
	// Warnings lists structures that failed validation (corruption the
	// fault injection caused before death).
	Warnings []string
}

// Inspect walks the dump from the fixed globals anchor, exactly as the
// crash kernel does, and inventories every process.
func Inspect(img *Image, globalsAddr uint64) (*Report, error) {
	rep := &Report{}
	var g layout.Globals
	var buf []byte
	if err := g.Read(img, globalsAddr, true, &buf); err != nil {
		return nil, fmt.Errorf("dump: globals anchor: %w", err)
	}
	rep.BootCount = g.BootCount
	walkList(rep, "process list", g.ProcListHead, layout.TypeProc, func(cur uint64) (uint64, error) {
		var p layout.Proc
		if err := p.Read(img, cur, true, &buf); err != nil {
			return 0, err
		}
		rep.Procs = append(rep.Procs, inventory(img, rep, &p))
		return p.Next, nil
	})
	return rep, nil
}

// inventory summarizes one process descriptor from the dump.
func inventory(img *Image, rep *Report, p *layout.Proc) ProcInfo {
	info := ProcInfo{PID: p.PID, Name: p.Name, Program: p.Program, CrashProc: p.CrashProc}
	info.HasTerminal = p.Terminal != 0

	//owvet:allow errdrop: the inventory is best-effort; a corrupt context record just leaves the syscall fields blank
	if ctx, ok, _ := layout.ReadContext(img, p.KStack); ok {
		info.InSyscall = ctx.InSyscall
		info.SyscallNo = ctx.SyscallNo
	}

	// Page tables.
	if p.PageDir != 0 {
		resident, swapped := countPages(img, p.PageDir)
		info.ResidentPages, info.SwappedPages = resident, swapped
	}

	// Open files.
	var buf []byte
	var rec layout.FileRec
	walkList(rep, fmt.Sprintf("pid %d file list", p.PID), p.Files, layout.TypeFile, func(a uint64) (uint64, error) {
		if err := rec.Read(img, a, true, &buf); err != nil {
			return 0, err
		}
		info.OpenFiles = append(info.OpenFiles, fmt.Sprintf("%s@%d", rec.Path, rec.Offset))
		return rec.Next, nil
	})
	sort.Strings(info.OpenFiles)

	var sock layout.Socket
	info.Sockets = walkList(rep, fmt.Sprintf("pid %d socket list", p.PID), p.Sockets, layout.TypeSocket, func(a uint64) (uint64, error) {
		err := sock.Read(img, a, true, &buf)
		return sock.Next, err
	})
	var pipe layout.Pipe
	info.Pipes = walkList(rep, fmt.Sprintf("pid %d pipe list", p.PID), p.Pipes, layout.TypePipe, func(a uint64) (uint64, error) {
		err := pipe.Read(img, a, true, &buf)
		return pipe.Next, err
	})
	var shm layout.Shm
	info.ShmSegments = walkList(rep, fmt.Sprintf("pid %d shm list", p.PID), p.Shm, layout.TypeShm, func(a uint64) (uint64, error) {
		err := shm.Read(img, a, true, &buf)
		return shm.Next, err
	})
	return info
}

// countPages walks a two-level page table in the dump.
func countPages(img *Image, pageDir uint64) (resident, swapped int) {
	for dir := 0; dir < layout.DirEntries; dir++ {
		var entBuf [8]byte
		if img.ReadAt(pageDir+uint64(dir)*layout.PTESize, entBuf[:]) != nil {
			return resident, swapped
		}
		ent := binary.LittleEndian.Uint64(entBuf[:])
		if ent == 0 || ent%phys.PageSize != 0 {
			continue
		}
		ptPage := make([]byte, phys.PageSize)
		if img.ReadAt(ent, ptPage) != nil {
			continue
		}
		for t := 0; t < layout.PTEsPerPage; t++ {
			pte := layout.PTE(binary.LittleEndian.Uint64(ptPage[t*8:]))
			switch {
			case pte.Present():
				resident++
			case pte.Swapped():
				swapped++
			}
		}
	}
	return resident, swapped
}

// walkList follows a chain of type-t records from head with the crash
// kernel's walker (layout.Chain): visit decodes the record at an address
// and returns the next one. The walk stops at the end of the chain, at the
// first record visit fails on, or at the first record it reaches a second
// time (a CRC-valid stale Next is enough to close a loop), keeping what
// came before. A failed record or a loop ends the walk with a warning in
// rep naming the list and the address. It returns how many records visit
// decoded.
func walkList(rep *Report, list string, head uint64, t layout.Type, visit func(uint64) (uint64, error)) int {
	var c layout.Chain
	var at uint64
	n, err := c.Walk(head, t, func(a uint64) (uint64, error) {
		at = a
		return visit(a)
	})
	var ce *layout.CorruptionError
	switch {
	case err == nil:
	case errors.As(err, &ce) && ce.Reason == layout.LoopReason:
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("%s loops back to %#x", list, ce.Addr))
	default:
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("%s record at %#x: %v", list, at, err))
	}
	return n
}

// Render formats the inventory like a crash(8)-style summary.
func Render(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash dump: kernel generation %d, %d processes\n", rep.BootCount, len(rep.Procs))
	for _, p := range rep.Procs {
		fmt.Fprintf(&b, "  pid %-4d %-12s program=%-12s pages=%d(+%d swapped)",
			p.PID, p.Name, p.Program, p.ResidentPages, p.SwappedPages)
		if p.InSyscall {
			fmt.Fprintf(&b, " in-syscall=%d", p.SyscallNo)
		}
		if p.CrashProc != "" {
			fmt.Fprintf(&b, " crashproc=%s", p.CrashProc)
		}
		fmt.Fprintln(&b)
		if len(p.OpenFiles) > 0 {
			fmt.Fprintf(&b, "           files: %s\n", strings.Join(p.OpenFiles, ", "))
		}
		if p.Sockets+p.Pipes+p.ShmSegments > 0 || p.HasTerminal {
			fmt.Fprintf(&b, "           resources: sockets=%d pipes=%d shm=%d terminal=%v\n",
				p.Sockets, p.Pipes, p.ShmSegments, p.HasTerminal)
		}
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(&b, "  WARNING: %s\n", w)
	}
	return b.String()
}
