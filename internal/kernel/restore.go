package kernel

import (
	"fmt"

	"otherworld/internal/hw"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// Restoration API: the entry points the crash kernel (package resurrect)
// uses to install reconstructed state into fresh processes. They reuse the
// existing kernel paths — "we modified the existing clone() call to handle
// both operations" (Section 3.7) — so resurrection creates processes through
// the same code as fork (newProcess), links open files through the open
// path's fd-table link (linkFile), and maps pages through the page fault's
// present-PTE helper (mapPresent).

// CreateProcessForResurrection is the clone()-derived entry: fork's
// newProcess builds the process shell (descriptor, kernel stack, page
// directory, registry-bound program) without running the program's Boot,
// because the address space will be installed from the dead kernel's image
// instead. The crash kernel has no candidate index until the morph, so the
// index write-through does nothing here.
func (k *Kernel) CreateProcessForResurrection(name, program string) (*Process, error) {
	return k.newProcess(name, program)
}

// InstallRegion recreates a memory-region descriptor in a resurrected
// process; fileRec must already be the *new* kernel's file record address.
func (k *Kernel) InstallRegion(p *Process, r *layout.MemRegion, fileRec uint64) error {
	length := r.End - r.Start
	return k.MapRegion(p, r.Start, length, r.Prot, r.Kind, fileRec, r.FileOffset)
}

// InstallResidentPage allocates a frame for va and fills it with data, the
// dead kernel's page. Nil data is an all-zero page, the fast path's
// elision: the scan kept no copy of it, and the frame the allocator zeroed
// is mapped as it is.
func (k *Kernel) InstallResidentPage(p *Process, va uint64, data []byte, writable, dirty bool) error {
	pteAddr, _, err := k.walk(p, va, true)
	if err != nil {
		return err
	}
	frame, err := k.allocFrame(phys.FrameUser)
	if err != nil {
		return err
	}
	if data != nil {
		if err := k.M.Mem.WriteAt(phys.FrameAddr(frame), data); err != nil {
			return err
		}
	}
	return k.mapPresent(pteAddr, frame, writable, dirty)
}

// InstallSpeculatedPage is the lazy install's copy-on-access case, the
// paper's footnote-3 mapping: instead of copying the dead kernel's page, the
// crash kernel writes a speculated PTE whose frame bits name the dead frame,
// and adopts that frame as FrameSpeculated so the morph cannot recycle it
// while the speculation is outstanding. The first touch — or the background
// sweeper — validates the contents and replaces the entry with the resident
// private copy an eager install would have produced.
func (k *Kernel) InstallSpeculatedPage(p *Process, va uint64, deadFrame int, writable, dirty bool) error {
	pteAddr, _, err := k.walk(p, va, true)
	if err != nil {
		return err
	}
	if err := k.Alloc.AdoptFrame(deadFrame, phys.FrameSpeculated); err != nil {
		return err
	}
	return k.setPTE(pteAddr, layout.MakeSpeculatedPTE(deadFrame, writable, dirty))
}

// InstallSwappedPage re-stages a page that the dead kernel had swapped out:
// the contents (read from the dead kernel's partition) are written to a
// fresh slot on *this* kernel's partition (Section 3.2's two-partition
// design) and the PTE marked swapped.
func (k *Kernel) InstallSwappedPage(p *Process, va uint64, data []byte, writable bool) error {
	if k.swap == nil {
		return fmt.Errorf("kernel: no swap partition to re-stage onto")
	}
	pteAddr, _, err := k.walk(p, va, true)
	if err != nil {
		return err
	}
	slot, err := k.swap.Alloc(data)
	if err != nil {
		return err
	}
	return k.setPTE(pteAddr, layout.MakeSwappedPTE(slot, writable))
}

// InstallOpenFile recreates an open-file record at the same fd-table
// position with the recorded path, flags and offset (Section 3.3). It
// returns the new record's address for region back-references.
func (k *Kernel) InstallOpenFile(p *Process, old *layout.FileRec) (uint64, error) {
	if !k.FS.Exists(old.Path) {
		return 0, fmt.Errorf("kernel: reopen %q: no such file", old.Path)
	}
	if old.FD >= p.fdNext {
		p.fdNext = old.FD + 1
	}
	return k.linkFile(p, layout.FileRec{
		FD:     old.FD,
		Path:   old.Path,
		Flags:  old.Flags,
		Offset: old.Offset,
		Mapped: old.Mapped,
	})
}

// InstallTerminal recreates a physical terminal with the dead kernel's
// geometry, settings, cursor and screen contents (Section 3.3), opening it
// with them in one step.
func (k *Kernel) InstallTerminal(p *Process, old *layout.Terminal, screen []byte) error {
	return k.openTerminal(p, *old, screen)
}

// InstallSignals recreates the signal-handler table.
func (k *Kernel) InstallSignals(p *Process, tbl *layout.Signals) error {
	addr, _, err := k.Heap.WriteNewRecord(k.encode(tbl.AppendRecord))
	if err != nil {
		return err
	}
	p.D.Signals = addr
	return k.writeProc(p)
}

// InstallShm recreates a shared-memory segment attached at the original
// address and fills it page by page: page(i) returns the segment's i-th
// page, of which the bytes the segment covers are written (the last page
// may be partial). Like WriteVM, it charges the copy once for the whole
// segment and writes every page, all-zero ones too.
func (k *Kernel) InstallShm(p *Process, old *layout.Shm, page func(i int) ([]byte, error)) error {
	if err := k.ShmGet(p, old.Key, old.Size, old.AttachedAt); err != nil {
		return err
	}
	wasCopy := k.inCopyWindow
	k.inCopyWindow = true
	defer func() { k.inCopyWindow = wasCopy }()
	k.M.Clock.Advance(k.cost.CopyCost(int64(old.Size)))
	for i := 0; uint64(i)*phys.PageSize < old.Size; i++ {
		n := min(old.Size-uint64(i)*phys.PageSize, phys.PageSize)
		b, err := page(i)
		if err == nil && uint64(len(b)) < n {
			err = fmt.Errorf("kernel: shm page %d holds %d bytes, want %d", i, len(b), n)
		}
		if err != nil {
			return err
		}
		if err := k.accessPage(p, old.AttachedAt+uint64(i)*phys.PageSize, b[:n], true); err != nil {
			return err
		}
	}
	return nil
}

// InstallPipe recreates a pipe endpoint with its buffered bytes — the
// Section 7 future-work extension, implemented per the paper's Section 3.3
// analysis: a pipe whose semaphore was held at failure time is in an
// unknown intermediate state and must not be restored.
func (k *Kernel) InstallPipe(p *Process, old *layout.Pipe, buf []byte) error {
	if old.Locked {
		return fmt.Errorf("kernel: pipe %d was locked at failure time; state inconsistent", old.ID)
	}
	if err := k.PipeOpen(p, old.ID, old.PeerPID); err != nil {
		return err
	}
	var rec layout.Pipe
	addr, err := k.lookupPipe(p, old.ID, &rec)
	if err != nil {
		return err
	}
	n := len(buf)
	if n > pipeBufCapacity {
		n = pipeBufCapacity
	}
	if err := k.M.Mem.WriteAt(rec.Buf, buf[:n]); err != nil {
		return err
	}
	rec.ReadPos = old.ReadPos % pipeBufCapacity
	rec.WritePos = old.WritePos % pipeBufCapacity
	return k.writePipeRec(addr, &rec)
}

// InstallSocket rebinds a socket with its recorded connection parameters —
// the Section 7 future-work extension. UDP needs only the binding; for TCP
// the sequence number and window are restored so the (simulated) remote
// peer sees a transparent continuation. In-flight payloads died with the
// main kernel, exactly as Section 3.3 argues is safe for IP.
func (k *Kernel) InstallSocket(p *Process, old *layout.Socket) error {
	if err := k.SockOpen(p, old.ID, old.Proto, old.LocalPort); err != nil {
		return err
	}
	var rec layout.Socket
	addr, err := k.lookupSocket(p, old.ID, &rec)
	if err != nil {
		return err
	}
	rec.RemotePort = old.RemotePort
	rec.Seq = old.Seq
	rec.Window = old.Window
	return k.reseal(addr, k.encode(rec.AppendRecord))
}

// InstallContext restores the saved hardware context of a resurrected
// process. If the thread was inside a system call, the call is aborted and
// the retry flag raised (Section 3.5).
func (k *Kernel) InstallContext(p *Process, ctx layout.Context) error {
	p.Ctx = ctx
	if ctx.InSyscall {
		p.SyscallAborted = true
		p.Ctx.InSyscall = false
	}
	p.Resurrected++
	return k.SaveContextToStack(p)
}

// AdoptAllMemory is the morph step (Section 3.6): the crash kernel reclaims
// every physical frame it does not already manage, resets its tag and
// protection, and takes over the fixed anchor frames, becoming the main
// kernel. The caller must re-reserve a region and load a fresh crash image
// afterwards.
func (k *Kernel) AdoptAllMemory() error {
	total := k.M.Mem.NumFrames()
	adopted := k.Alloc.AdoptUnmanaged(phys.Region{Start: 0, Frames: total})
	// Take the anchor frames.
	if err := k.Alloc.Claim(0, phys.FrameKernelText); err != nil {
		return err
	}
	if err := k.Alloc.Claim(hw.IDTFrame, phys.FrameKernelText); err != nil {
		return err
	}
	if err := k.Alloc.Claim(GlobalsFrame, phys.FrameKernelHeap); err != nil {
		return err
	}
	// Move the globals anchor to the fixed address: this kernel is now
	// the main kernel other tools will find there.
	k.globalsAddr = GlobalsAddr
	k.Globals.BootCount++
	k.isCrashKernel = false // it is the main kernel now
	if err := k.syncGlobals(); err != nil {
		return err
	}
	k.logf("morphed into main kernel: adopted %d frames", adopted)
	return nil
}
