package kernel

import (
	"errors"
	"fmt"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// ErrSegfault reports a user access outside any mapped region. It kills the
// offending process rather than the kernel.
var ErrSegfault = errors.New("kernel: segmentation fault")

// MapRegion adds a virtual memory region to the process. File-backed
// regions record the backing FileRec's address and offset so both demand
// paging and resurrection can find the file.
func (k *Kernel) MapRegion(p *Process, start, length uint64, prot uint8, kind layout.RegionKind, fileRec uint64, fileOff uint64) error {
	if start%phys.PageSize != 0 || length == 0 {
		return fmt.Errorf("kernel: bad region [%#x,+%#x)", start, length)
	}
	end := start + length
	if end > layout.MaxUserVA {
		return fmt.Errorf("kernel: region end %#x beyond user space", end)
	}
	rec := layout.MemRegion{
		Start:      start,
		End:        end,
		Prot:       prot,
		Kind:       kind,
		File:       fileRec,
		FileOffset: fileOff,
		Next:       p.D.MemRegions,
	}
	addr, _, err := k.Heap.WriteNewRecord(k.encode(rec.AppendRecord))
	if err != nil {
		return err
	}
	p.D.MemRegions = addr
	return k.writeProc(p)
}

// findRegion walks the process's region list in memory looking for the
// region containing va, decoding each record into *r. Corrupted region
// records panic the kernel when CRC checking is on, or propagate garbage
// when it is off — both faithful.
func (k *Kernel) findRegion(p *Process, va uint64, r *layout.MemRegion) error {
	cur := p.D.MemRegions
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return k.oopsf(OopsBadStructure, "region list loop for pid %d", p.PID)
		}
		if err := r.Read(k.M.Mem, cur, k.P.VerifyCRC, &k.recBuf); err != nil {
			return k.oopsf(OopsBadStructure, "pid %d region record: %v", p.PID, err)
		}
		if va >= r.Start && va < r.End {
			return nil
		}
		cur = r.Next
	}
	return ErrSegfault
}

// walk resolves va through the two-level page table, optionally allocating
// the page-table page. It returns the physical address of the PTE slot and
// its current value. Page-directory and page-table entries are raw words —
// real hardware state carries no checksums — so corruption here is followed
// wherever it points, and only impossible addresses are caught as oopses.
func (k *Kernel) walk(p *Process, va uint64, allocate bool) (pteAddr uint64, pte layout.PTE, err error) {
	dir, table, _, ok := layout.VirtSplit(va)
	if !ok {
		return 0, 0, ErrSegfault
	}
	dirSlot := p.D.PageDir + uint64(dir)*layout.PTESize
	dirEnt, err := k.M.Mem.ReadU64(dirSlot)
	if err != nil {
		return 0, 0, k.oopsf(OopsBadPageTable, "pid %d page directory unreadable: %v", p.PID, err)
	}
	if dirEnt == 0 {
		if !allocate {
			return 0, 0, nil
		}
		f, aerr := k.allocFrame(phys.FramePageTable)
		if aerr != nil {
			return 0, 0, aerr
		}
		dirEnt = phys.FrameAddr(f)
		if werr := k.M.Mem.WriteU64(dirSlot, dirEnt); werr != nil {
			return 0, 0, k.oopsf(OopsBadPageTable, "pid %d page directory write: %v", p.PID, werr)
		}
	}
	if dirEnt%phys.PageSize != 0 || dirEnt >= uint64(k.M.Mem.Size()) {
		return 0, 0, k.oopsf(OopsBadPageTable, "pid %d page directory entry %#x invalid", p.PID, dirEnt)
	}
	pteAddr = dirEnt + uint64(table)*layout.PTESize
	raw, err := k.M.Mem.ReadU64(pteAddr)
	if err != nil {
		return 0, 0, k.oopsf(OopsBadPageTable, "pid %d PTE unreadable: %v", p.PID, err)
	}
	return pteAddr, layout.PTE(raw), nil
}

// mapPresent maps frame at the PTE slot pteAddr as a present page,
// writable and dirty as asked. The fault path's swap-in and demand fill,
// the crash kernel's page installs and shm attach all map frames here.
func (k *Kernel) mapPresent(pteAddr uint64, frame int, writable, dirty bool) error {
	pte := layout.MakePresentPTE(frame, writable)
	if dirty {
		pte = pte.WithDirty()
	}
	return k.setPTE(pteAddr, pte)
}

// setPTE stores a PTE value.
func (k *Kernel) setPTE(pteAddr uint64, pte layout.PTE) error {
	if err := k.M.Mem.WriteU64(pteAddr, uint64(pte)); err != nil {
		return k.oopsf(OopsBadPageTable, "PTE write: %v", err)
	}
	return nil
}

// allocFrame allocates a frame, swapping out pages under memory pressure
// like the Linux page reclaim path.
func (k *Kernel) allocFrame(kind phys.FrameKind) (int, error) {
	f, err := k.Alloc.Alloc(kind)
	if err == nil {
		return f, nil
	}
	if !errors.Is(err, phys.ErrNoFrames) {
		return 0, err
	}
	// Reclaim: evict user pages round-robin across processes.
	for _, victim := range k.Procs() {
		n, serr := k.SwapOutPages(victim, 32)
		if serr != nil {
			return 0, serr
		}
		if n > 0 {
			if f, err = k.Alloc.Alloc(kind); err == nil {
				return f, nil
			}
		}
	}
	return 0, k.oopsf(OopsOOM, "out of memory: no frames and nothing to evict")
}

// touchPage makes the page at va resident, performing demand-zero fill,
// file-backed fill or swap-in as needed, and returns its frame.
func (k *Kernel) touchPage(p *Process, va uint64, write bool) (int, error) {
	pteAddr, pte, err := k.walk(p, va, true)
	if err != nil {
		return 0, err
	}
	switch {
	case pte.Present():
		frame := pte.Frame()
		if frame >= k.M.Mem.NumFrames() {
			return 0, k.oopsf(OopsBadPageTable, "pid %d PTE frame %d beyond memory", p.PID, frame)
		}
		if write {
			if err := k.setPTE(pteAddr, pte.WithDirty()); err != nil {
				return 0, err
			}
		}
		return frame, nil

	case pte.Speculated():
		// Lazy-install page: the PTE references the dead kernel's frame
		// copy-on-access. The resolver validates the contents and replaces
		// the entry with a resident private copy (or the eager-fallback
		// copy), charging the consuming process's timeline.
		k.Perf.PageFaults++
		if k.Spec == nil {
			return 0, k.oopsf(OopsBadPageTable, "pid %d speculated PTE for %#x with no resolver", p.PID, va)
		}
		if rerr := k.Spec.ResolveSpeculated(p, va&^uint64(phys.PageSize-1)); rerr != nil {
			return 0, rerr
		}
		_, npte, werr := k.walk(p, va, false)
		if werr != nil {
			return 0, werr
		}
		if !npte.Present() {
			return 0, k.oopsf(OopsBadPageTable, "pid %d speculation resolver left %#x non-resident", p.PID, va)
		}
		frame := npte.Frame()
		if write {
			if err := k.setPTE(pteAddr, npte.WithDirty()); err != nil {
				return 0, err
			}
		}
		return frame, nil

	case pte.Swapped():
		k.Perf.PageFaults++
		if behave := k.executeKernelFunc(FuncSwap, p); behave != BehaveBenign {
			return 0, k.manifest(behave, "swap-in")
		}
		if k.swap == nil {
			return 0, k.oopsf(OopsBadPageTable, "swapped PTE with no swap device")
		}
		data, rerr := k.swap.Read(pte.SwapSlot())
		if rerr != nil {
			return 0, k.oopsf(OopsBadPageTable, "pid %d swap-in slot %d: %v", p.PID, pte.SwapSlot(), rerr)
		}
		frame, aerr := k.allocFrame(phys.FrameUser)
		if aerr != nil {
			return 0, aerr
		}
		if werr := k.M.Mem.WriteAt(phys.FrameAddr(frame), data); werr != nil {
			return 0, k.oopsf(OopsBadPageTable, "swap-in copy: %v", werr)
		}
		k.swap.Free(pte.SwapSlot())
		if err := k.mapPresent(pteAddr, frame, pte.Writable(), write); err != nil {
			return 0, err
		}
		k.Perf.SwapIns++
		return frame, nil

	default:
		// Never-touched page: demand fill.
		k.Perf.PageFaults++
		if behave := k.executeKernelFunc(FuncPageFault, p); behave != BehaveBenign {
			return 0, k.manifest(behave, "page-fault")
		}
		var region layout.MemRegion
		if rerr := k.findRegion(p, va, &region); rerr != nil {
			return 0, rerr
		}
		frame, aerr := k.allocFrame(phys.FrameUser)
		if aerr != nil {
			return 0, aerr
		}
		if region.Kind == layout.RegionFileMap && region.File != 0 {
			var frec layout.FileRec
			if ferr := k.readFileRec(region.File, &frec); ferr != nil {
				return 0, k.oopsf(OopsBadStructure, "pid %d mmap file record: %v", p.PID, ferr)
			}
			pageBase := va &^ uint64(phys.PageSize-1)
			fileOff := int64(region.FileOffset + (pageBase - region.Start))
			buf := make([]byte, phys.PageSize)
			if _, err := k.FS.ReadAt(frec.Path, fileOff, buf); err == nil {
				if werr := k.M.Mem.WriteAt(phys.FrameAddr(frame), buf); werr != nil {
					return 0, k.oopsf(OopsBadPageTable, "mmap fill: %v", werr)
				}
			}
		}
		if err := k.mapPresent(pteAddr, frame, region.Prot&layout.ProtWrite != 0, write); err != nil {
			return 0, err
		}
		return frame, nil
	}
}

// ReadVM copies user memory at va into buf, page by page, charging TLB and
// cycle costs.
func (k *Kernel) ReadVM(p *Process, va uint64, buf []byte) error {
	return k.accessVM(p, va, buf, false)
}

// WriteVM copies buf into user memory at va.
func (k *Kernel) WriteVM(p *Process, va uint64, buf []byte) error {
	return k.accessVM(p, va, buf, true)
}

func (k *Kernel) accessVM(p *Process, va uint64, buf []byte, write bool) error {
	wasCopy := k.inCopyWindow
	k.inCopyWindow = true
	defer func() { k.inCopyWindow = wasCopy }()

	// Data movement costs virtual time at memcpy bandwidth, so bulk
	// operations (checkpoints, crash-procedure scans) show up on the
	// clock that Table 6 and the Section 5.4 comparison read.
	k.M.Clock.Advance(k.cost.CopyCost(int64(len(buf))))

	for off := 0; off < len(buf); {
		n := min(phys.PageSize-int((va+uint64(off))%phys.PageSize), len(buf)-off)
		if err := k.accessPage(p, va+uint64(off), buf[off:off+n], write); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// accessPage copies b, which does not run past the page, to or from user
// memory at va, faulting the page in and charging the TLB access.
func (k *Kernel) accessPage(p *Process, va uint64, b []byte, write bool) error {
	frame, err := k.touchPage(p, va, write)
	if err != nil {
		return err
	}
	k.chargeAccess(va >> 12)
	pa := phys.FrameAddr(frame) + va%phys.PageSize
	if write {
		if err := k.M.Mem.WriteAt(pa, b); err != nil {
			var pf *phys.ProtectionFault
			if errors.As(err, &pf) {
				return k.oopsf(OopsProtection, "pid %d write hit protected frame %d", p.PID, pf.Frame)
			}
			return k.oopsf(OopsBadPageTable, "user write: %v", err)
		}
	} else if err := k.M.Mem.ReadAt(pa, b); err != nil {
		return k.oopsf(OopsBadPageTable, "user read: %v", err)
	}
	return nil
}

// AccessPattern simulates n read accesses spread over the page span starting
// at va, without moving data: the workload generator's way of modelling an
// application's working-set traffic for the TLB (Table 3).
func (k *Kernel) AccessPattern(p *Process, va uint64, pages int, accesses int) error {
	if pages < 1 {
		pages = 1
	}
	for i := 0; i < accesses; i++ {
		page := va + uint64(k.rng.Pick(pages))*phys.PageSize
		if _, err := k.touchPage(p, page, false); err != nil {
			return err
		}
		k.chargeAccess(page >> 12)
	}
	return nil
}

// SwapOutPages evicts up to n resident pages of p to the swap partition,
// returning how many were evicted.
func (k *Kernel) SwapOutPages(p *Process, n int) (int, error) {
	if k.swap == nil || n <= 0 {
		return 0, nil
	}
	evicted := 0
	err := k.forEachPTE(p, func(pteAddr uint64, pte layout.PTE, va uint64) (bool, error) {
		if evicted >= n || !pte.Present() {
			return true, nil
		}
		frame := pte.Frame()
		if frame >= k.M.Mem.NumFrames() {
			return false, k.oopsf(OopsBadPageTable, "swap-out: PTE frame %d invalid", frame)
		}
		// An uncounted copy into the page buffer, which Alloc copies in
		// turn; a frame never written gains no storage by being read.
		page := k.pageBuffer(phys.PageSize)
		if ferr := k.M.Mem.CopyFrame(frame, 0, page); ferr != nil {
			return false, ferr
		}
		slot, serr := k.swap.Alloc(page)
		if serr != nil {
			return true, nil // swap full: stop evicting, not fatal
		}
		if werr := k.setPTE(pteAddr, layout.MakeSwappedPTE(slot, pte.Writable())); werr != nil {
			return false, werr
		}
		k.Alloc.Free(frame)
		evicted++
		k.Perf.SwapOuts++
		return true, nil
	})
	return evicted, err
}

// forEachPTE visits every allocated PTE slot of the process. The visitor
// returns false to abort the walk.
func (k *Kernel) forEachPTE(p *Process, visit func(pteAddr uint64, pte layout.PTE, va uint64) (bool, error)) error {
	for dir := 0; dir < layout.DirEntries; dir++ {
		dirSlot := p.D.PageDir + uint64(dir)*layout.PTESize
		dirEnt, err := k.M.Mem.ReadU64(dirSlot)
		if err != nil {
			return k.oopsf(OopsBadPageTable, "page directory read: %v", err)
		}
		if dirEnt == 0 {
			continue
		}
		if dirEnt%phys.PageSize != 0 || dirEnt >= uint64(k.M.Mem.Size()) {
			return k.oopsf(OopsBadPageTable, "page directory entry %#x invalid", dirEnt)
		}
		for t := 0; t < layout.PTEsPerPage; t++ {
			pteAddr := dirEnt + uint64(t)*layout.PTESize
			raw, err := k.M.Mem.ReadU64(pteAddr)
			if err != nil {
				return k.oopsf(OopsBadPageTable, "PTE read: %v", err)
			}
			pte := layout.PTE(raw)
			if pte == 0 {
				continue
			}
			cont, err := visit(pteAddr, pte, layout.VirtJoin(dir, t, 0))
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
	}
	return nil
}

// ResidentPages counts present pages in the process's page tables.
func (k *Kernel) ResidentPages(p *Process) (present, swapped int, err error) {
	err = k.forEachPTE(p, func(_ uint64, pte layout.PTE, _ uint64) (bool, error) {
		if pte.Present() {
			present++
		} else if pte.Swapped() {
			swapped++
		}
		return true, nil
	})
	return present, swapped, err
}
