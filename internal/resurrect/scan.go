package resurrect

import (
	"fmt"
	"time"

	"otherworld/internal/disk"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/sim"
	"otherworld/internal/trace"
)

// The resurrection pipeline is split into a read side and a write side so
// candidates can be processed in parallel without giving up determinism:
//
//   - scan (this file): per-candidate, read-only decoding of the dead
//     kernel's structures into a plan. Scans never touch the crash kernel's
//     state, so a pool of workers can run them concurrently — each scan
//     owns its own counting reader, Accounting shard and virtual-time
//     ledger.
//   - install (install.go): one candidate at a time, in the pass's commit
//     order (stream.go), consuming each plan once its scan is done. All
//     crash-kernel mutation (PID allocation, frame installs, FS writes,
//     crash procedures) happens here, so the new kernel's state is
//     byte-identical no matter how many workers scanned.

// phaseScan is the scan-side metric bundle for one timeline phase: bytes
// read from the dead kernel, pages handled, and ledger time spent.
type phaseScan struct {
	pages int
	bytes int64
	dur   time.Duration
}

// dirtyPage is one dirty page-cache page to be flushed at install time.
type dirtyPage struct {
	off  uint64
	data []byte
}

// filePlan is one decoded open-file record plus its pending flushes.
type filePlan struct {
	addr  uint64
	rec   *layout.FileRec
	dirty []dirtyPage
}

// pagePlan is one user page to install: a resident copy, an in-place
// mapping (footnote-3 mode), or a swapped page read raw off the dead
// kernel's partition. The scan marks an all-zero resident page zero and
// keeps no copy of it (the install zero-fills). The fast-path
// classification (fastpath.go) charges that elision and may mark a
// non-zero copy deduplicated (data re-pointed at the canonical cached
// copy); the lazy install's classification may instead mark it speculated
// (mapped copy-on-access from the dead frame, validated by crc on first
// touch, with data kept as the scan-time snapshot the fallback installs).
type pagePlan struct {
	va         uint64
	swapped    bool
	mapped     bool
	zero       bool // all-zero page: no data, install a zero-filled frame
	deduped    bool // data aliases the dedup cache's canonical copy
	speculated bool // lazy install: map copy-on-access from the dead frame
	frame      int  // the dead kernel's frame holding the page contents
	crc        uint32
	saved      int64 // actual copy bytes avoided (elided/deduped pages)
	data       []byte
	writable   bool
	dirty      bool
}

// shmPlan is one decoded shared-memory segment with its page contents:
// one slice per frame read, nil when the frame was all zero. The commit
// assembles them into the segment's bytes (Engine.installShm).
type shmPlan struct {
	seg    *layout.Shm
	frames [][]byte
}

// pipePlan is one decoded pipe with its buffer page.
type pipePlan struct {
	rec *layout.Pipe
	buf []byte
}

// plan is everything one candidate's install needs, produced by a single
// scan and never touched by another worker. Scan-side errors are recorded
// per structure; the install replays the serial engine's exact
// fatal/degraded branching from them.
type plan struct {
	cand Candidate

	old      *layout.Proc
	ctx      layout.Context
	parseErr error

	files    []filePlan
	filesErr error

	regions    []*layout.MemRegion
	regionsErr error

	pages     []pagePlan
	swapBytes int64
	pagesErr  error

	shm    []shmPlan
	shmErr error

	terminal *layout.Terminal
	screen   []byte
	termErr  error

	signals *layout.Signals
	sigErr  error

	pipes      []pipePlan
	pipesErr   error
	sockets    []*layout.Socket
	socketsErr error
	hasPipes   bool
	hasSockets bool

	// phase carries scan-side metrics into the install's timeline.
	phase map[Phase]phaseScan
	// scanDur is the candidate's total scan-side virtual time.
	scanDur time.Duration

	// lazy marks the candidate for the demand-paged install: non-zero
	// resident pages are speculated (mapped copy-on-access from the dead
	// frame) and the process resumes as soon as its context installs.
	lazy bool
	// fallbackReason is the structured attribution recorded when the lazy
	// install's validation refused to speculate this candidate; it then
	// installs eagerly, through the ordinary full-copy classification.
	fallbackReason string
	// resumeClock is the scratch-clock instant the process became runnable
	// (context installed). The commit seeds it with -1; eager installs leave
	// it there, meaning the candidate blocked until its install finished.
	resumeClock time.Duration
}

// scanner is one worker's read-only view of the dead kernel. It charges
// virtual time to a private ledger instead of the shared machine clock, so
// concurrent scans cannot race on it; the engine folds the ledgers into the
// parallel schedule afterwards.
type scanner struct {
	rd           reader
	acct         *Accounting
	cost         sim.CostModel
	memSize      uint64
	numFrames    int
	verifyCRC    bool
	mapPages     bool
	resurrectIPC bool
	mainSwap     *disk.BlockDevice
	// metrics is the shared registry; scan-side writes are counter adds
	// whose values are pure functions of the candidate, so any worker
	// interleaving folds to the same totals (commutative int adds under
	// the registry lock).
	metrics *metrics.Registry

	// led is the worker's virtual-time ledger.
	led time.Duration
	// events is the worker's trace sequence; logical event time is
	// candidate-local so the merged order cannot depend on worker count.
	events []trace.Event
}

// newScanner builds a worker-local scanner with its own counting reader
// over view, a phys.Mem view the pass absorbs after the scan, and its own
// Accounting shard.
func (e *Engine) newScanner(shard *Accounting, view *phys.Mem, mainSwap *disk.BlockDevice) *scanner {
	return &scanner{
		rd:           reader{mem: view, acct: shard},
		acct:         shard,
		cost:         e.K.Cost(),
		memSize:      uint64(view.Size()),
		numFrames:    view.NumFrames(),
		verifyCRC:    e.VerifyCRC,
		mapPages:     e.MapPages,
		resurrectIPC: e.ResurrectIPC,
		mainSwap:     mainSwap,
		metrics:      e.Metrics,
	}
}

// charge adds d to the worker's ledger (saturating at zero: the cost model
// never yields negative durations, but the ledger mirrors sim.Clock).
func (s *scanner) charge(d time.Duration) {
	if d > 0 {
		s.led += d
	}
}

// parseTime charges the fixed record-parse overhead, the scan-side
// equivalent of Engine.parseTime.
func (s *scanner) parseTime() { s.charge(s.cost.RecordParseOverhead) }

// scanOne decodes one candidate into a plan, stopping at the first fatal
// structure (exactly where the serial engine stopped reading) and recording
// per-phase metrics plus one trace event per phase.
func (s *scanner) scanOne(cand Candidate) *plan {
	pl := &plan{cand: cand, phase: make(map[Phase]phaseScan)}
	start := s.led
	bytesAtStart := s.acct.total()
	bytesMark := bytesAtStart
	ledMark := s.led
	rec := func(ph Phase, pages int) {
		ps := phaseScan{
			pages: pages,
			bytes: s.acct.total() - bytesMark,
			dur:   s.led - ledMark,
		}
		pl.phase[ph] = ps
		bytesMark += ps.bytes
		ledMark = s.led
		// Logical event time is the offset inside this candidate's own
		// scan: a pure function of the candidate, not of which worker ran
		// it or what ran before it on the same worker.
		s.events = append(s.events, trace.Event{
			Seq:  uint64(s.led - start),
			Kind: trace.KindResurrect,
			PID:  cand.PID,
			PC:   uint64(s.led - start),
			A:    uint64(ph),
			B:    uint64(ps.bytes),
			Note: ph.String(),
		})
	}
	done := func() *plan {
		pl.scanDur = s.led - start
		// Pool-side instrumentation: concurrent counter adds from
		// whichever worker scanned this candidate.
		s.metrics.Counter("resurrect_scans_total",
			"candidates decoded by the scan pool", nil).Inc()
		s.metrics.Counter("resurrect_scan_bytes_total",
			"dead-kernel bytes read by the scan pool", nil).Add(s.acct.total() - bytesAtStart)
		return pl
	}

	// Phase 1: process descriptor, program presence, saved context.
	old, err := layout.ReadProc(s.rd.at(CatProc), cand.Addr, s.verifyCRC)
	if err != nil {
		pl.parseErr = fmt.Errorf("process descriptor: %w", err)
		rec(PhaseParse, 0)
		return done()
	}
	s.parseTime()
	pl.old = old
	if kernel.LookupProgram(old.Program) == nil {
		pl.parseErr = fmt.Errorf("program %q not on disk", old.Program)
		rec(PhaseParse, 0)
		return done()
	}
	ctx, ok, err := layout.ReadContext(s.rd.at(CatContext), old.KStack)
	if err != nil || !ok || !ctx.Saved {
		pl.parseErr = fmt.Errorf("saved context missing or unreadable on kernel stack %#x", old.KStack)
		rec(PhaseParse, 0)
		return done()
	}
	s.parseTime()
	pl.ctx = ctx
	rec(PhaseParse, 0)

	// Phase 2: open files and their dirty page-cache pages. The flush
	// itself (an FS write) belongs to the install; the scan reads the
	// records and page contents. A corrupted list degrades (missing-files
	// bit) so later phases are still scanned, matching the serial engine.
	pl.files, pl.filesErr = s.scanFiles(old)
	rec(PhaseFileReopen, 0)
	rec(PhaseFlush, 0)
	if pl.filesErr != nil && !layout.IsCorruption(pl.filesErr) {
		return done()
	}

	// Phase 3: memory regions (fatal on corruption).
	pl.regions, pl.regionsErr = s.scanRegions(old)
	rec(PhaseRegions, 0)
	if pl.regionsErr != nil {
		return done()
	}

	// Phases 4+5: page tables and page contents. The accounting split
	// between page-copy and swap-restage mirrors the serial engine: the
	// copy step carries all bytes except raw swap reads.
	copied, restaged := 0, 0
	swapMark := s.acct.ByCategory[CatSwapData]
	pl.pages, pl.pagesErr = s.scanPages(old, &copied, &restaged)
	pl.swapBytes = s.acct.ByCategory[CatSwapData] - swapMark
	pagesDelta := s.acct.total() - bytesMark
	pagesDur := s.led - ledMark
	pl.phase[PhasePageCopy] = phaseScan{pages: copied, bytes: pagesDelta - pl.swapBytes, dur: pagesDur}
	pl.phase[PhaseSwapRestage] = phaseScan{pages: restaged, bytes: pl.swapBytes}
	bytesMark += pagesDelta
	ledMark = s.led
	s.events = append(s.events, trace.Event{
		Seq:  uint64(s.led - start),
		Kind: trace.KindResurrect,
		PID:  cand.PID,
		PC:   uint64(s.led - start),
		A:    uint64(PhasePageCopy),
		B:    uint64(pagesDelta),
		Note: PhasePageCopy.String(),
	})
	if pl.pagesErr != nil {
		return done()
	}

	// Phase 6: shared memory (fatal: it is memory).
	pl.shm, pl.shmErr = s.scanShm(old)
	rec(PhaseShm, 0)
	if pl.shmErr != nil {
		return done()
	}

	// Phases 7+8: terminal and signals — peripheral, degrade on error.
	if old.Terminal != 0 {
		pl.terminal, pl.screen, pl.termErr = s.scanTerminal(old)
		rec(PhaseTerminal, 0)
	}
	if old.Signals != 0 {
		pl.signals, pl.sigErr = s.scanSignals(old)
		rec(PhaseSignals, 0)
	}

	// Phase 9: IPC — restored under the Section 7 extension, otherwise
	// only probed for the missing-resource bitmask.
	if s.resurrectIPC {
		pl.pipes, pl.pipesErr = s.scanPipes(old)
		pl.sockets, pl.socketsErr = s.scanSockets(old)
	} else {
		pl.hasPipes, _ = s.hasIPC(old.Pipes, layout.TypePipe)
		pl.hasSockets, _ = s.hasIPC(old.Sockets, layout.TypeSocket)
	}
	rec(PhaseIPC, 0)

	return done()
}

// scanFiles walks the fd list, decoding each record and collecting the
// dirty page-cache pages that the install must write back to disk.
func (s *scanner) scanFiles(old *layout.Proc) ([]filePlan, error) {
	var out []filePlan
	cur := old.Files
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return out, &layout.CorruptionError{Addr: cur, Want: layout.TypeFile, Reason: "fd list loop"}
		}
		rec, err := layout.ReadFileRec(s.rd.at(CatFile), cur, s.verifyCRC)
		if err != nil {
			return out, err
		}
		s.parseTime()
		fp := filePlan{addr: cur, rec: rec}
		cp := rec.CachePages
		for cacheHops := 0; cp != 0; cacheHops++ {
			if cacheHops > 65536 {
				return out, &layout.CorruptionError{Addr: cp, Want: layout.TypeCachePage, Reason: "page cache loop"}
			}
			page, err := layout.ReadCachePage(s.rd.at(CatCache), cp, s.verifyCRC)
			if err != nil {
				return out, err
			}
			s.parseTime()
			if page.Dirty && page.Bytes > 0 && page.Bytes <= phys.PageSize {
				buf := make([]byte, page.Bytes)
				if err := s.rd.at(CatUserData).ReadAt(page.Frame*phys.PageSize, buf); err != nil {
					return out, &layout.CorruptionError{Addr: cp, Want: layout.TypeCachePage, Reason: "cache frame unreadable"}
				}
				fp.dirty = append(fp.dirty, dirtyPage{off: page.FileOff, data: buf})
			}
			cp = page.Next
		}
		out = append(out, fp)
		cur = rec.Next
	}
	return out, nil
}

// scanRegions decodes the memory-region list.
func (s *scanner) scanRegions(old *layout.Proc) ([]*layout.MemRegion, error) {
	var out []*layout.MemRegion
	cur := old.MemRegions
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return out, &layout.CorruptionError{Addr: cur, Want: layout.TypeMemRegion, Reason: "region list loop"}
		}
		r, err := layout.ReadMemRegion(s.rd.at(CatRegion), cur, s.verifyCRC)
		if err != nil {
			return out, err
		}
		s.parseTime()
		out = append(out, r)
		cur = r.Next
	}
	return out, nil
}

// scanPages walks the dead process's hardware page tables and captures
// every touched page: resident pages are copied out of the dead frame (or
// noted for in-place mapping), swapped pages are read raw off the dead
// kernel's swap partition. Each resident page is read into a buffer reused
// until a non-zero page keeps it, so an all-zero page is marked zero and
// costs no memory. Swap re-stage bandwidth is charged to the worker's
// ledger here; resident-copy bandwidth is deferred to the serial fast-path
// classification (fastpath.go), which knows whether each page elides,
// dedups or pays the full copy.
func (s *scanner) scanPages(old *layout.Proc, copied, restaged *int) ([]pagePlan, error) {
	if old.PageDir%phys.PageSize != 0 || old.PageDir >= s.memSize {
		return nil, fmt.Errorf("page directory address %#x implausible", old.PageDir)
	}
	dirPage := make([]byte, phys.PageSize)
	if err := s.rd.at(CatPageTable).ReadAt(old.PageDir, dirPage); err != nil {
		return nil, fmt.Errorf("page directory unreadable: %v", err)
	}

	var out []pagePlan
	ptPage := make([]byte, phys.PageSize)
	var buf []byte // the next resident page's buffer, nil once a page kept it
	for dir := 0; dir < layout.DirEntries; dir++ {
		dirEnt := leU64(dirPage[dir*8:])
		if dirEnt == 0 {
			continue
		}
		if dirEnt%phys.PageSize != 0 || dirEnt >= s.memSize {
			return out, fmt.Errorf("page directory entry %d (%#x) corrupt", dir, dirEnt)
		}
		if err := s.rd.at(CatPageTable).ReadAt(dirEnt, ptPage); err != nil {
			return out, fmt.Errorf("page table unreadable: %v", err)
		}
		for t := 0; t < layout.PTEsPerPage; t++ {
			pte := layout.PTE(leU64(ptPage[t*8:]))
			if pte == 0 {
				continue
			}
			va := layout.VirtJoin(dir, t, 0)
			switch {
			// A speculated PTE in a *dead* kernel means it crashed before
			// its own lazy install finished resolving; the referenced frame
			// still holds the page's authoritative contents (writes resolve
			// before landing), so it scans exactly like a present page.
			case pte.Present(), pte.Speculated():
				frame := pte.Frame()
				if frame >= s.numFrames {
					return out, fmt.Errorf("PTE for %#x references frame %d beyond memory", va, frame)
				}
				pp := pagePlan{va: va, frame: frame, writable: pte.Writable(), dirty: pte.Dirty()}
				if s.mapPages {
					// Footnote-3 fast path: adopt the frame in place.
					pp.mapped = true
					s.charge(s.cost.RecordParseOverhead)
				} else {
					if buf == nil {
						buf = make([]byte, phys.PageSize)
					}
					if err := s.rd.at(CatUserData).ReadAt(phys.FrameAddr(frame), buf); err != nil {
						return out, err
					}
					if phys.PageIsZero(buf) {
						pp.zero = true
					} else {
						pp.data, buf = buf, nil
					}
					// The copy bandwidth is NOT charged here: the serial
					// fast-path classification (fastpath.go) charges
					// CopyCost, DedupHitCost or ZeroFillCost per page once
					// it knows which of the three the page needs. Byte
					// accounting stays here with the read.
				}
				out = append(out, pp)
				*copied++
			case pte.Swapped():
				if s.mainSwap == nil {
					return out, fmt.Errorf("swapped PTE for %#x but main swap partition unavailable", va)
				}
				data, derr := disk.ReadRaw(s.mainSwap, pte.SwapSlot())
				if derr != nil {
					return out, fmt.Errorf("swap slot %d: %v", pte.SwapSlot(), derr)
				}
				s.acct.ByCategory[CatSwapData] += int64(len(data))
				out = append(out, pagePlan{va: va, swapped: true, data: data, writable: pte.Writable()})
				s.charge(s.cost.SwapRestageCost(phys.PageSize))
				*restaged++
			}
		}
	}
	return out, nil
}

// scanShm decodes each shared-memory segment and copies its page contents,
// frame by frame, through a buffer reused until a non-zero frame keeps it:
// an all-zero frame costs no memory.
func (s *scanner) scanShm(old *layout.Proc) ([]shmPlan, error) {
	var out []shmPlan
	var buf []byte // the next frame's buffer, nil once a frame kept it
	cur := old.Shm
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return out, &layout.CorruptionError{Addr: cur, Want: layout.TypeShm, Reason: "shm list loop"}
		}
		seg, err := layout.ReadShm(s.rd.at(CatShm), cur, s.verifyCRC)
		if err != nil {
			return out, err
		}
		s.parseTime()
		var frames [][]byte
		for i, f := range seg.Frames {
			if f >= uint64(s.numFrames) {
				return out, fmt.Errorf("shm frame %d beyond memory", f)
			}
			off := uint64(i) * phys.PageSize
			if off >= seg.Size {
				break
			}
			n := min(seg.Size-off, phys.PageSize)
			if buf == nil {
				buf = make([]byte, phys.PageSize)
			}
			if err := s.rd.at(CatUserData).ReadAt(f*phys.PageSize, buf[:n]); err != nil {
				return out, err
			}
			var kept []byte
			if !phys.PageIsZero(buf[:n]) {
				kept, buf = buf[:n], nil
			}
			frames = append(frames, kept)
		}
		out = append(out, shmPlan{seg: seg, frames: frames})
		s.charge(s.cost.CopyCost(int64(seg.Size)))
		cur = seg.Next
	}
	return out, nil
}

// scanTerminal decodes the terminal record and screen buffer. Pseudo
// terminals are refused — the prototype "can only restore the state of
// physical terminals".
func (s *scanner) scanTerminal(old *layout.Proc) (*layout.Terminal, []byte, error) {
	rec, err := layout.ReadTerminal(s.rd.at(CatTerminal), old.Terminal, s.verifyCRC)
	if err != nil {
		return nil, nil, err
	}
	s.parseTime()
	if rec.Settings&kernel.TermPseudo != 0 {
		return nil, nil, fmt.Errorf("pseudo terminal %d is not resurrectable", rec.Index)
	}
	screen := make([]byte, int(rec.Rows)*int(rec.Cols))
	if err := s.rd.at(CatTerminal).ReadAt(rec.Screen, screen); err != nil {
		return nil, nil, err
	}
	return rec, screen, nil
}

// scanSignals decodes the signal-handler table.
func (s *scanner) scanSignals(old *layout.Proc) (*layout.Signals, error) {
	tbl, err := layout.ReadSignals(s.rd.at(CatSignals), old.Signals, s.verifyCRC)
	if err != nil {
		return nil, err
	}
	s.parseTime()
	return tbl, nil
}

// scanPipes decodes the pipe list with each pipe's buffer page.
func (s *scanner) scanPipes(old *layout.Proc) ([]pipePlan, error) {
	var out []pipePlan
	cur := old.Pipes
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return out, &layout.CorruptionError{Addr: cur, Want: layout.TypePipe, Reason: "pipe list loop"}
		}
		rec, err := layout.ReadPipe(s.rd.at(CatIPC), cur, s.verifyCRC)
		if err != nil {
			return out, err
		}
		s.parseTime()
		buf := make([]byte, phys.PageSize)
		if rec.Buf+phys.PageSize <= s.memSize {
			if err := s.rd.at(CatUserData).ReadAt(rec.Buf, buf); err != nil {
				return out, err
			}
		}
		out = append(out, pipePlan{rec: rec, buf: buf})
		cur = rec.Next
	}
	return out, nil
}

// scanSockets decodes the socket list.
func (s *scanner) scanSockets(old *layout.Proc) ([]*layout.Socket, error) {
	var out []*layout.Socket
	cur := old.Sockets
	for hops := 0; cur != 0; hops++ {
		if hops > 4096 {
			return out, &layout.CorruptionError{Addr: cur, Want: layout.TypeSocket, Reason: "socket list loop"}
		}
		rec, err := layout.ReadSocket(s.rd.at(CatIPC), cur, s.verifyCRC)
		if err != nil {
			return out, err
		}
		s.parseTime()
		out = append(out, rec)
		cur = rec.Next
	}
	return out, nil
}

// hasIPC reports whether a pipe/socket list is non-empty. A corrupted list
// head is conservatively treated as present.
func (s *scanner) hasIPC(head uint64, t layout.Type) (bool, error) {
	if head == 0 {
		return false, nil
	}
	var err error
	switch t {
	case layout.TypePipe:
		_, err = layout.ReadPipe(s.rd.at(CatIPC), head, s.verifyCRC)
	case layout.TypeSocket:
		_, err = layout.ReadSocket(s.rd.at(CatIPC), head, s.verifyCRC)
	}
	s.parseTime()
	return true, err
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
