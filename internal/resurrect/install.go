package resurrect

import (
	"fmt"
	"hash/crc32"

	"otherworld/internal/disk"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// installOne rebuilds a single process from its scanned plan. It runs
// serially, in the pass's commit order, and is the only place the crash
// kernel is mutated — so PIDs, frame allocation, FS contents and crash
// procedure effects are identical no matter how many workers scanned.
//
// A page, shared-memory frame or screen whose bytes the scan did not stage
// is copied from its dead frame here, as it installs (Engine.deadFrame),
// and validated against the CRC the scan stamped: no commit of an eager
// pass writes a frame the crash kernel's allocator does not manage, so the
// frame still holds what the scan read and counted. A copy that fails the
// check fails its install (frameChanged).
//
// Failures of memory-critical structures abort resurrection (Table 5's
// "failure to resurrect application"); failures of peripheral resources set
// bits in the missing mask and defer to the crash procedure (Table 1).
// Scan-side errors recorded in the plan reproduce exactly the serial
// engine's branching.
func (e *Engine) installOne(pl *plan) ProcReport {
	pr := ProcReport{Candidate: pl.cand}
	// The timeline recorder: each step combines the scan-side metrics for
	// the phase (bytes read from the dead kernel, read/copy time from the
	// worker's ledger) with the install-side virtual time since the
	// previous step.
	markTime := e.K.M.Clock.Now()
	step := func(ph Phase, pages int, err error) {
		sc := pl.phase[ph]
		st := PhaseStep{
			Phase:    ph,
			Pages:    pages,
			Bytes:    sc.bytes,
			Duration: sc.dur + e.K.M.Clock.Since(markTime),
		}
		if err != nil {
			st.Err = err.Error()
		}
		pr.Timeline = append(pr.Timeline, st)
		markTime = e.K.M.Clock.Now()
	}
	fail := func(ph Phase, err error) ProcReport {
		step(ph, 0, err)
		pr.Outcome = OutcomeFailed
		pr.Err = err
		return pr
	}

	if pl.parseErr != nil {
		return fail(PhaseParse, pl.parseErr)
	}
	np, err := e.K.CreateProcessForResurrection(pl.old.Name, pl.old.Program)
	if err != nil {
		return fail(PhaseParse, fmt.Errorf("create process: %w", err))
	}
	pr.NewPID = np.PID
	step(PhaseParse, 0, nil)

	// Open files first so file-backed regions can reference the new
	// records; also flush the dead kernel's dirty page-cache pages. The
	// flush goes through the disk model's write-combining queue: every
	// dirty page across every file is enqueued, then issued block-sorted
	// with adjacent pages merged into extents, one modeled seek per extent
	// (DiskBatchCost) instead of scattered per-page writes.
	fileMap := make(map[uint64]uint64)
	flushed, flushExtents := 0, 0
	fileErr := func() error {
		var wq disk.WriteQueue
		for _, fp := range pl.files {
			for _, dp := range fp.dirty {
				if qerr := wq.Enqueue(fp.rec.Path, int64(dp.off), dp.data); qerr != nil {
					// A malformed extent means the dead kernel's cache-page
					// record lied about its geometry: degrade the candidate
					// the way any corrupt file record does.
					return &layout.CorruptionError{Want: layout.TypeCachePage,
						Reason: qerr.Error()}
				}
				pr.FlushedPages = append(pr.FlushedPages,
					FlushedPage{Path: fp.rec.Path, Off: int64(dp.off)})
				flushed++
			}
		}
		extents, bytes, werr := wq.Flush(func(path string, off int64, data []byte) error {
			_, ferr := e.K.FS.WriteAt(path, off, data, true)
			return ferr
		})
		flushExtents = extents
		e.K.M.Clock.Advance(e.K.Cost().DiskBatchCost(extents, bytes))
		if werr != nil {
			return werr
		}
		for i := range pl.files {
			fp := &pl.files[i]
			newAddr, ierr := e.K.InstallOpenFile(np, &fp.rec)
			if ierr != nil {
				return ierr
			}
			fileMap[fp.addr] = newAddr
		}
		return pl.filesErr
	}()
	if fileErr != nil {
		if layout.IsCorruption(fileErr) {
			pr.Missing |= kernel.ResFiles
			step(PhaseFileReopen, 0, fileErr) // degraded, not fatal
		} else {
			return fail(PhaseFileReopen, fmt.Errorf("restore files: %w", fileErr))
		}
	} else {
		step(PhaseFileReopen, 0, nil)
	}
	pr.DirtyFlushed = flushed
	pr.FlushExtents = flushExtents
	step(PhaseFlush, flushed, nil)

	// Memory regions and page contents — corruption here is fatal: a
	// process without its memory cannot run a crash procedure either.
	if pl.regionsErr != nil {
		return fail(PhaseRegions, fmt.Errorf("restore regions: %w", pl.regionsErr))
	}
	for i := range pl.regions {
		r := &pl.regions[i]
		newFile := uint64(0)
		if r.Kind == layout.RegionFileMap {
			newFile = fileMap[r.File] // 0 if the file failed to reopen
		}
		if err := e.K.InstallRegion(np, r, newFile); err != nil {
			return fail(PhaseRegions, fmt.Errorf("restore regions: %w", err))
		}
	}
	step(PhaseRegions, 0, nil)

	// Install the pages the scan captured. An error is attributed to the
	// re-stage phase once swap reading had begun, matching the serial
	// engine's split of the single page walk into two timeline entries.
	copied, restaged, elided, deduped, speculated := 0, 0, 0, 0, 0
	var saved int64
	swapSeen := false
	pageErr := pl.pagesErr
	for i := range pl.pages {
		pg := &pl.pages[i]
		var ierr error
		switch pg.kind {
		case pageSwapped:
			swapSeen = true
			ierr = e.K.InstallSwappedPage(np, pg.va, pg.data[:], pg.writable)
		case pageSpeculated:
			// Lazy install: adopt the dead frame and map it copy-on-access;
			// the page materializes on first touch or by the background
			// sweeper (lazy.go). Classification vetted the adoption, so a
			// failure here is a real install error.
			ierr = e.K.InstallSpeculatedPage(np, pg.va, int(pg.frame), pg.writable, pg.dirty)
			if ierr == nil {
				e.lazy.register(np.PID, pg)
			}
		case pageZero:
			// No data: a zero-filled frame.
			ierr = e.K.InstallResidentPage(np, pg.va, nil, pg.writable, pg.dirty)
		default:
			// A copy or a dedup hit fills a private frame from the page's
			// bytes, so candidates never share writable memory.
			var data []byte
			data, ierr = e.pageData(pg.data, pg.frame, 0)
			if ierr == nil && pg.data == nil && crc32.Checksum(data, layout.CRCTable) != pg.crc {
				ierr = frameChanged(int(pg.frame))
			}
			if ierr == nil {
				ierr = e.K.InstallResidentPage(np, pg.va, data, pg.writable, pg.dirty)
			}
		}
		if ierr != nil {
			pageErr = ierr
			break
		}
		if pg.kind == pageSwapped {
			restaged++
			continue
		}
		copied++
		switch pg.kind {
		case pageZero:
			elided++
			saved += pageLiveBytes(pl.regions, pg.va)
		case pageDeduped:
			deduped++
			saved += pageLiveBytes(pl.regions, pg.va)
		case pageSpeculated:
			speculated++
		}
	}
	pr.PagesCopied, pr.PagesRestaged = copied, restaged
	pr.PagesElided, pr.PagesDeduped = elided, deduped
	pr.PagesSpeculated, pr.SavedBytes = speculated, saved
	pr.SpecFallback = pl.fallbackReason
	scPC, scSR := pl.phase[PhasePageCopy], pl.phase[PhaseSwapRestage]
	dur := scPC.dur + e.K.M.Clock.Since(markTime)
	markTime = e.K.M.Clock.Now()
	pc := PhaseStep{Phase: PhasePageCopy, Pages: copied, Bytes: scPC.bytes, Duration: dur}
	sr := PhaseStep{Phase: PhaseSwapRestage, Pages: restaged, Bytes: scSR.bytes}
	if pageErr != nil {
		werr := fmt.Errorf("restore pages: %w", pageErr)
		if pl.swapBytes > 0 || swapSeen {
			sr.Err = werr.Error()
			pr.Timeline = append(pr.Timeline, pc, sr)
		} else {
			pc.Err = werr.Error()
			pr.Timeline = append(pr.Timeline, pc)
		}
		pr.Outcome = OutcomeFailed
		pr.Err = werr
		return pr
	}
	pr.Timeline = append(pr.Timeline, pc, sr)

	// Shared memory (fatal on corruption: it is memory).
	if pl.shmErr != nil {
		return fail(PhaseShm, fmt.Errorf("restore shm: %w", pl.shmErr))
	}
	for i := range pl.shm {
		if err := e.installShm(np, &pl.shm[i]); err != nil {
			return fail(PhaseShm, fmt.Errorf("restore shm: %w", err))
		}
	}
	step(PhaseShm, 0, nil)

	// Terminal, signals: peripheral; corruption sets missing bits. Only
	// physical terminals are restorable (Section 3.3); pseudo terminals
	// are reported through the bitmask.
	if pl.old.Terminal != 0 {
		termErr := pl.termErr
		var screen []byte
		if termErr == nil {
			screen, termErr = e.screenData(pl)
		}
		if termErr == nil && pl.screen == nil && crc32.Checksum(screen, layout.CRCTable) != pl.screenCRC {
			termErr = frameChanged(phys.FrameOf(pl.terminal.Screen))
		}
		if termErr == nil {
			termErr = e.K.InstallTerminal(np, &pl.terminal, screen)
		}
		if termErr != nil {
			pr.Missing |= kernel.ResTerminal
		}
		step(PhaseTerminal, 0, termErr)
	}
	if pl.old.Signals != 0 {
		// A corrupted signal table degrades to default handlers; it is
		// not worth failing the resurrection over.
		sigErr := pl.sigErr
		if sigErr == nil {
			sigErr = e.K.InstallSignals(np, &pl.signals)
		}
		step(PhaseSignals, 0, sigErr)
	}

	// Pipes and sockets: the prototype reports them as missing
	// (Section 3.3); with the Section 7 extension enabled they are
	// restored — except pipes caught mid-operation, whose locked
	// semaphore marks them inconsistent.
	var ipcErr error
	if e.ResurrectIPC {
		perr := pl.pipesErr
		for i := range pl.pipes {
			if perr != nil {
				break
			}
			perr = e.K.InstallPipe(np, &pl.pipes[i].rec, pl.pipes[i].buf)
		}
		if perr != nil {
			pr.Missing |= kernel.ResPipes
			ipcErr = perr
		}
		serr := pl.socketsErr
		for i := range pl.sockets {
			if serr != nil {
				break
			}
			serr = e.K.InstallSocket(np, &pl.sockets[i])
		}
		if serr != nil {
			pr.Missing |= kernel.ResSockets
			if ipcErr == nil {
				ipcErr = serr
			}
		}
	} else {
		if pl.hasPipes {
			pr.Missing |= kernel.ResPipes
		}
		if pl.hasSockets {
			pr.Missing |= kernel.ResSockets
		}
	}
	step(PhaseIPC, 0, ipcErr)

	if err := e.K.InstallContext(np, pl.ctx); err != nil {
		return fail(PhaseContext, fmt.Errorf("install context: %w", err))
	}
	step(PhaseContext, 0, nil)
	if pl.lazy {
		// The process is runnable from here: its context is installed and
		// every resurrection-critical record parsed. The crash procedure
		// and policy decision below still run — and still cost virtual
		// time — but they overlap normal operation, so Run charges them to
		// the machine's schedule, not to this candidate's blocked span.
		pl.resumeClock = e.K.M.Clock.Now()
	}

	// Table 1 policy.
	pr = e.applyPolicy(np, pl.cand, pr)
	if e.lazy != nil {
		// A crash-procedure touch may have failed CRC validation and fallen
		// the candidate back mid-resume; surface the attribution here.
		if reason, ok := e.lazy.takeFallback(np.PID); ok && pr.SpecFallback == "" {
			pr.SpecFallback = reason
		}
	}
	step(PhasePolicy, 0, pr.Err)
	return pr
}

// installShm recreates one scanned segment, page by page: each frame's
// bytes are the scan's staged copy or, where the scan staged none, the dead
// frame's, validated against the CRC the scan stamped. A page past the
// record's frame list installs as zeros.
func (e *Engine) installShm(np *kernel.Process, sp *shmPlan) error {
	return e.K.InstallShm(np, &sp.seg, func(i int) ([]byte, error) {
		if i >= len(sp.crc) {
			return zeroPage[:], nil
		}
		if sp.kept != nil && sp.kept[i] != nil {
			return sp.kept[i], nil
		}
		f := int(sp.seg.Frames[i])
		page, err := e.deadFrame(f, 0)
		n := min(sp.seg.Size-uint64(i)*phys.PageSize, phys.PageSize)
		if err == nil && crc32.Checksum(page[:n], layout.CRCTable) != sp.crc[i] {
			err = frameChanged(f)
		}
		return page, err
	})
}

// screenData returns the plan's terminal screen: the scan's staged copy or,
// where the scan staged none, the screen's bytes copied from the dead frame
// it lies in.
func (e *Engine) screenData(pl *plan) ([]byte, error) {
	if pl.screen != nil {
		return pl.screen, nil
	}
	at := pl.terminal.Screen
	page, err := e.deadFrame(phys.FrameOf(at), 0)
	if err != nil {
		return nil, err
	}
	off := int(at % phys.PageSize)
	return page[off : off+int(pl.terminal.Rows)*int(pl.terminal.Cols)], nil
}

// deadFrame copies dead frame f into the engine's frame buffer slot (0 or
// 1) and returns it. The copy is not counted: the scan read the frame
// through the counting reader once, and Table 4 counts one read.
func (e *Engine) deadFrame(f, slot int) ([]byte, error) {
	if e.frameBuf == nil {
		e.frameBuf = new([2][phys.PageSize]byte)
	}
	buf := e.frameBuf[slot][:]
	return buf, e.rd.copyFrame(f, buf)
}

// pageData returns a resident page's bytes: data when the plan holds them,
// else dead frame f copied into the engine's frame buffer slot.
func (e *Engine) pageData(data *[phys.PageSize]byte, f int32, slot int) ([]byte, error) {
	if data != nil {
		return data[:], nil
	}
	return e.deadFrame(int(f), slot)
}

// frameChanged is the error of a commit whose dead frame no longer holds
// the bytes its scan read: a commit wrote a frame the scan did not stage.
func frameChanged(f int) error {
	return fmt.Errorf("dead frame %d changed after the scan", f)
}
