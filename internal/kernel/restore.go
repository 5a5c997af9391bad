package kernel

import (
	"fmt"

	"otherworld/internal/hw"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// Restoration API: the entry points the crash kernel (package resurrect)
// uses to install reconstructed state into fresh processes. These mirror
// the paper's reuse of existing kernel paths — "we modified the existing
// clone() call to handle both operations" (Section 3.7) — so resurrection
// creates processes through the same code as normal process creation.

// CreateProcessForResurrection is the clone()-derived entry: it builds a
// process shell (descriptor, kernel stack, page directory, registry-bound
// program) without running the program's Boot, because the address space
// will be installed from the dead kernel's image instead.
func (k *Kernel) CreateProcessForResurrection(name, program string) (*Process, error) {
	if len(name) > maxNameLen || len(program) > maxNameLen {
		return nil, fmt.Errorf("kernel: process/program name too long")
	}
	factory := LookupProgram(program)
	if factory == nil {
		return nil, fmt.Errorf("kernel: no program registered as %q", program)
	}
	kstackFrame, err := k.Alloc.Alloc(phys.FrameKernelStack)
	if err != nil {
		return nil, err
	}
	kstack := phys.FrameAddr(kstackFrame)
	if err := k.fillStackPattern(kstack, kstackNMIStart, phys.PageSize); err != nil {
		return nil, err
	}
	dirFrame, err := k.Alloc.Alloc(phys.FramePageTable)
	if err != nil {
		return nil, err
	}
	addr, err := k.Heap.Alloc(procSlotSize)
	if err != nil {
		return nil, err
	}
	pid := k.Globals.NextPID
	k.Globals.NextPID++
	p := &Process{
		PID:  pid,
		Addr: addr,
		D: layout.Proc{
			PID:     pid,
			State:   layout.ProcRunnable,
			Name:    name,
			Program: program,
			PageDir: phys.FrameAddr(dirFrame),
			KStack:  kstack,
			Next:    k.Globals.ProcListHead,
		},
		fdNext: 3,
	}
	p.Ctx.Saved = true
	if err := layout.WriteContext(k.M.Mem, kstack, &p.Ctx); err != nil {
		return nil, err
	}
	if err := k.writeProc(p); err != nil {
		return nil, err
	}
	k.Globals.ProcListHead = addr
	if err := k.syncGlobals(); err != nil {
		return nil, err
	}
	k.procs[pid] = p
	k.procOrder = append(k.procOrder, pid)
	p.Prog = factory()
	return p, nil
}

// InstallRegion recreates a memory-region descriptor in a resurrected
// process; fileRec must already be the *new* kernel's file record address.
func (k *Kernel) InstallRegion(p *Process, r *layout.MemRegion, fileRec uint64) error {
	length := r.End - r.Start
	return k.MapRegion(p, r.Start, length, r.Prot, r.Kind, fileRec, r.FileOffset)
}

// InstallResidentPage allocates a frame for va and fills it with data from
// the dead kernel's page.
func (k *Kernel) InstallResidentPage(p *Process, va uint64, data []byte, writable, dirty bool) error {
	pteAddr, _, err := k.walk(p, va, true)
	if err != nil {
		return err
	}
	frame, err := k.allocFrame(phys.FrameUser)
	if err != nil {
		return err
	}
	if err := k.M.Mem.WriteAt(phys.FrameAddr(frame), data); err != nil {
		return err
	}
	pte := layout.MakePresentPTE(frame, writable)
	if dirty {
		pte = pte.WithDirty()
	}
	return k.setPTE(pteAddr, pte)
}

// InstallZeroPage is the fast path's elision case: the dead kernel's page
// was entirely zero, so instead of copying 4 KB the crash kernel maps a
// freshly zero-filled frame. The PTE is identical to the one
// InstallResidentPage would have produced for the same page.
func (k *Kernel) InstallZeroPage(p *Process, va uint64, writable, dirty bool) error {
	pteAddr, _, err := k.walk(p, va, true)
	if err != nil {
		return err
	}
	frame, err := k.allocFrame(phys.FrameUser)
	if err != nil {
		return err
	}
	if err := k.M.Mem.Zero(frame); err != nil {
		return err
	}
	pte := layout.MakePresentPTE(frame, writable)
	if dirty {
		pte = pte.WithDirty()
	}
	return k.setPTE(pteAddr, pte)
}

// InstallResidentPageMapped is the paper's footnote-3 optimization: instead
// of copying the dead kernel's page, the crash kernel maps the physical
// frame itself into the resurrected process, adopting it from the dead
// kernel. Resurrection of large processes becomes proportional to page
// count, not bytes.
func (k *Kernel) InstallResidentPageMapped(p *Process, va uint64, frame int, writable, dirty bool) error {
	pteAddr, _, err := k.walk(p, va, true)
	if err != nil {
		return err
	}
	if err := k.Alloc.AdoptFrame(frame, phys.FrameUser); err != nil {
		return err
	}
	pte := layout.MakePresentPTE(frame, writable)
	if dirty {
		pte = pte.WithDirty()
	}
	return k.setPTE(pteAddr, pte)
}

// InstallSpeculatedPage is the lazy install's copy-on-access case: instead
// of copying the dead kernel's page (or adopting it permanently, as the
// footnote-3 map mode does), the crash kernel writes a speculated PTE whose
// frame bits name the dead frame, and adopts that frame as FrameSpeculated
// so the morph cannot recycle it while the speculation is outstanding. The
// first touch — or the background sweeper — validates the contents and
// replaces the entry with the resident private copy an eager install would
// have produced.
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
	rec := layout.FileRec{
		FD:     old.FD,
		Path:   old.Path,
		Flags:  old.Flags,
		Offset: old.Offset,
		Mapped: old.Mapped,
		Next:   p.D.Files,
	}
	addr, err := k.Heap.Alloc(fileSlotSize)
	if err != nil {
		return 0, err
	}
	if err := k.writeFileRec(addr, &rec); err != nil {
		return 0, err
	}
	p.D.Files = addr
	if rec.FD >= p.fdNext {
		p.fdNext = rec.FD + 1
	}
	return addr, k.writeProc(p)
}

// InstallTerminal recreates a physical terminal with the dead kernel's
// geometry, settings, cursor and screen contents (Section 3.3).
func (k *Kernel) InstallTerminal(p *Process, old *layout.Terminal, screen []byte) error {
	if err := k.OpenTerminal(p, old.Index); err != nil {
		return err
	}
	rec, addr, err := k.readTerminalRec(p)
	if err != nil {
		return err
	}
	rec.Rows = old.Rows
	rec.Cols = old.Cols
	rec.CursorRow = old.CursorRow
	rec.CursorCol = old.CursorCol
	rec.Settings = old.Settings
	n := int(old.Rows) * int(old.Cols)
	if n > len(screen) {
		n = len(screen)
	}
	if err := k.M.Mem.WriteAt(rec.Screen, screen[:n]); err != nil {
		return err
	}
	return layout.WriteTerminal(k.M.Mem, addr, rec)
}

// InstallSignals recreates the signal-handler table.
func (k *Kernel) InstallSignals(p *Process, tbl *layout.Signals) error {
	addr, _, err := k.Heap.WriteNewRecord(layout.TypeSignals, tbl.EncodePayload())
	if err != nil {
		return err
	}
	p.D.Signals = addr
	return k.writeProc(p)
}

// InstallShm recreates a shared-memory segment with the given contents,
// attached at the original address.
func (k *Kernel) InstallShm(p *Process, old *layout.Shm, contents []byte) error {
	if err := k.ShmGet(p, old.Key, old.Size, old.AttachedAt); err != nil {
		return err
	}
	return k.WriteVM(p, old.AttachedAt, contents)
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
	rec, addr, err := k.lookupPipe(p, old.ID)
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
	return layout.WritePipe(k.M.Mem, addr, rec)
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
	rec, addr, err := k.lookupSocket(p, old.ID)
	if err != nil {
		return err
	}
	rec.RemotePort = old.RemotePort
	rec.Seq = old.Seq
	rec.Window = old.Window
	return layout.WriteSocket(k.M.Mem, addr, rec)
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
