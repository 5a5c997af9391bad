// Package dump implements post-mortem analysis of KDump-style crash dumps:
// the sparse physical-memory images written by core.HandleFailureKDump.
// Because all kernel state lives as self-describing records at known
// anchors, a dump can be parsed offline into the same process inventory the
// crash kernel sees during resurrection — the debugging workflow that
// motivated KDump, reproduced on top of this repository's formats.
package dump

import (
	"encoding/binary"
	"fmt"
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

// recordHeader is the sparse-dump framing: frame number + payload length.
const recordHeader = 12

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

// WriteAt rejects writes: dumps are immutable evidence.
func (img *Image) WriteAt(addr uint64, buf []byte) error {
	return fmt.Errorf("dump: image is read-only")
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
	g, err := layout.ReadGlobals(img, globalsAddr, true)
	if err != nil {
		return nil, fmt.Errorf("dump: globals anchor: %w", err)
	}
	rep.BootCount = g.BootCount
	cur := g.ProcListHead
	for hops := 0; cur != 0 && hops < 65536; hops++ {
		p, err := layout.ReadProc(img, cur, true)
		if err != nil {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("process record at %#x: %v", cur, err))
			break
		}
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
		fcur := p.Files
		for fh := 0; fcur != 0 && fh < 4096; fh++ {
			rec, err := layout.ReadFileRec(img, fcur, true)
			if err != nil {
				rep.Warnings = append(rep.Warnings, fmt.Sprintf("pid %d file record: %v", p.PID, err))
				break
			}
			info.OpenFiles = append(info.OpenFiles, fmt.Sprintf("%s@%d", rec.Path, rec.Offset))
			fcur = rec.Next
		}
		sort.Strings(info.OpenFiles)

		info.Sockets = countList(img, p.Sockets, func(a uint64) (uint64, error) {
			s, err := layout.ReadSocket(img, a, true)
			if err != nil {
				return 0, err
			}
			return s.Next, nil
		})
		info.Pipes = countList(img, p.Pipes, func(a uint64) (uint64, error) {
			s, err := layout.ReadPipe(img, a, true)
			if err != nil {
				return 0, err
			}
			return s.Next, nil
		})
		info.ShmSegments = countList(img, p.Shm, func(a uint64) (uint64, error) {
			s, err := layout.ReadShm(img, a, true)
			if err != nil {
				return 0, err
			}
			return s.Next, nil
		})

		rep.Procs = append(rep.Procs, info)
		cur = p.Next
	}
	return rep, nil
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

// countList walks a record chain, stopping on corruption.
func countList(img *Image, head uint64, next func(uint64) (uint64, error)) int {
	n := 0
	cur := head
	for hops := 0; cur != 0 && hops < 4096; hops++ {
		nx, err := next(cur)
		if err != nil {
			return n
		}
		n++
		cur = nx
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
