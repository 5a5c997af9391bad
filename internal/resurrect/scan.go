package resurrect

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"otherworld/internal/disk"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/sim"
)

// The resurrection pipeline is split into a read side and a write side so
// candidates can be processed in parallel without giving up determinism:
//
//   - scan (this file): per-candidate, read-only decoding of the dead
//     kernel's structures into a plan. Scans never touch the crash kernel's
//     state, so a pool of workers can run them concurrently — each worker
//     owns its scanner and read buffers, and each candidate its own
//     Accounting shard, phys.Mem view and virtual-time ledger.
//   - install (install.go): one candidate at a time, in the pass's commit
//     order (stream.go), consuming each plan once its scan is done. All
//     crash-kernel mutation (PID allocation, frame installs, FS writes,
//     crash procedures) happens here, so the new kernel's state is
//     byte-identical no matter how many workers scanned.
//
// The scan reads every resident page, shared-memory frame and terminal
// screen through the counting reader, as Table 4 counts them, but keeps
// their bytes only where a commit could overwrite them before the plan
// installs (scanner.stage): a frame the crash kernel's allocator manages,
// which only a corrupted record can name, and every frame of a lazy pass,
// whose resolutions free dead frames for reuse mid-pass. Any other dead
// frame stays untouched until the morph, so its plan carries the frame
// number and the CRC of what the scan read, and the commit copies the
// frame from dead memory as it installs it, validating the copy against
// that CRC.

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
	rec   layout.FileRec
	dirty []dirtyPage
}

// pageKind is how a pagePlan installs. The scan marks each page copy, zero
// or swapped; the commit's classification (fastpath.go) may turn a copy
// into deduped or speculated.
type pageKind uint8

const (
	// pageCopy is a resident page installed as a private copy of its bytes.
	pageCopy pageKind = iota
	// pageZero is an all-zero resident page: the install zero-fills a frame
	// and the plan keeps no bytes.
	pageZero
	// pageDeduped is a copy whose bytes the dedup cache's canonical page
	// already holds; the install still fills a private frame.
	pageDeduped
	// pageSpeculated is a lazy-install page mapped copy-on-access from its
	// dead frame.
	pageSpeculated
	// pageSwapped is a page read raw off the dead kernel's swap partition.
	pageSwapped
)

// pagePlan is one user page to install: a resident page, held in the dead
// kernel's frame, or a swapped page. data holds the page's bytes where the
// plan keeps them: a swapped page's, and a resident non-zero page's that
// the scan staged (scanner.stage); any other copy is re-read from frame at
// its commit. For a resident non-zero page the scan also takes crc, the
// CRC32 of the bytes it read: the dedup cache keys on it, the commit
// validates a re-read copy against it and a speculated page's first touch
// its dead frame. A speculated page's data is the shadow the lazy fallback
// installs.
type pagePlan struct {
	va       uint64
	data     *[phys.PageSize]byte
	frame    int32
	crc      uint32
	kind     pageKind
	writable bool
	dirty    bool
}

// shmPlan is one decoded shared-memory segment. crc holds the CRC32 of each
// frame's bytes as the scan read them, and kept the bytes of each frame the
// scan staged (scanner.stage), zeroPage's for an all-zero frame. kept is nil
// when the scan staged no frame, and a frame without kept bytes is copied
// from dead memory, and validated against its crc, at the commit.
type shmPlan struct {
	seg  layout.Shm
	crc  []uint32
	kept [][]byte
}

// zeroPage is the bytes of a staged all-zero shared-memory frame and of a
// segment page past its record's frame list. It is only ever read.
var zeroPage [phys.PageSize]byte

// pipePlan is one decoded pipe with its buffer page.
type pipePlan struct {
	rec layout.Pipe
	buf []byte
}

// plan is everything one candidate's install needs, produced by a single
// scan and never touched by another worker. It keeps the decoded records
// themselves. Scan-side errors are recorded per structure; the install
// replays the serial engine's exact fatal/degraded branching from them.
type plan struct {
	cand Candidate

	old      layout.Proc
	ctx      layout.Context
	parseErr error

	files    []filePlan
	filesErr error

	regions    []layout.MemRegion
	regionsErr error

	pages     []pagePlan
	swapBytes int64
	pagesErr  error

	shm    []shmPlan
	shmErr error

	terminal layout.Terminal
	// screen is the terminal's screen bytes when the scan staged them; nil
	// when the commit copies them from the dead frame that holds them and
	// validates them against screenCRC, the CRC32 of what the scan read.
	screen    []byte
	screenCRC uint32
	termErr   error

	signals layout.Signals
	sigErr  error

	pipes      []pipePlan
	pipesErr   error
	sockets    []layout.Socket
	socketsErr error
	hasPipes   bool
	hasSockets bool

	// phase carries scan-side metrics into the install's timeline.
	phase [len(phaseNames)]phaseScan
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
// parallel schedule afterwards. A worker scans its candidates one after
// another through one scanner, each into its own Accounting shard and
// phys.Mem view (scanOne).
type scanner struct {
	rd           reader
	buf          []byte // the record buffer every record of the scan decodes through
	page         [phys.PageSize]byte
	acct         *Accounting
	cost         sim.CostModel
	memSize      uint64
	numFrames    int
	verifyCRC    bool
	resurrectIPC bool
	mainSwap     *disk.BlockDevice
	// alloc is the crash kernel's frame allocator and lazy the pass's
	// install mode: together they decide which dead frames the scan must
	// stage (stage).
	alloc *phys.FrameAllocator
	lazy  bool
	// metrics is the shared registry; scan-side writes are counter adds
	// whose values are pure functions of the candidate, so any worker
	// interleaving folds to the same totals (commutative int adds under
	// the registry lock).
	metrics *metrics.Registry

	// led is the worker's virtual-time ledger.
	led time.Duration
}

// newScanner builds one worker's scanner.
func (e *Engine) newScanner(mainSwap *disk.BlockDevice) *scanner {
	return &scanner{
		cost:         e.K.Cost(),
		memSize:      uint64(e.K.M.Mem.Size()),
		numFrames:    e.K.M.Mem.NumFrames(),
		verifyCRC:    e.VerifyCRC,
		resurrectIPC: e.ResurrectIPC,
		mainSwap:     mainSwap,
		alloc:        e.K.Alloc,
		lazy:         e.LazyInstall,
		metrics:      e.Metrics,
	}
}

// stage reports whether the scan must keep the bytes of dead frame f for
// its commit. In an eager pass a commit writes only frames the crash
// kernel's allocator manages, and that set stays fixed until the morph:
// its own region and the free frames AddFreeFrames granted, which only a
// corrupted record can name. In a lazy pass a resolution frees a dead frame
// mid-pass, the next allocation reuses it, and a candidate that falls back
// to the eager install may name it, so every frame is staged.
func (s *scanner) stage(f int) bool { return s.lazy || s.alloc.Manages(f) }

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

// scanOne decodes one candidate into a plan, reading through view and
// counting into shard, stopping at the first fatal structure (exactly where
// the serial engine stopped reading) and recording per-phase metrics.
func (s *scanner) scanOne(cand Candidate, shard *Accounting, view *phys.Mem) *plan {
	s.rd = reader{mem: view, acct: shard}
	s.acct = shard
	pl := &plan{cand: cand}
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
	old := &pl.old
	if err := old.Read(s.rd.at(CatProc), cand.Addr, s.verifyCRC, &s.buf); err != nil {
		pl.parseErr = fmt.Errorf("process descriptor: %w", err)
		rec(PhaseParse, 0)
		return done()
	}
	s.parseTime()
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
		pl.screen, pl.screenCRC, pl.termErr = s.scanTerminal(old, &pl.terminal)
		rec(PhaseTerminal, 0)
	}
	if old.Signals != 0 {
		if pl.sigErr = pl.signals.Read(s.rd.at(CatSignals), old.Signals, s.verifyCRC, &s.buf); pl.sigErr == nil {
			s.parseTime()
		}
		rec(PhaseSignals, 0)
	}

	// Phase 9: IPC — restored under the Section 7 extension, otherwise
	// only probed for the missing-resource bitmask.
	if s.resurrectIPC {
		pl.pipes, pl.pipesErr = s.scanPipes(old)
		pl.sockets, pl.socketsErr = s.scanSockets(old)
	} else {
		pl.hasPipes = s.probe(old.Pipes, new(layout.Pipe).Read)
		pl.hasSockets = s.probe(old.Sockets, new(layout.Socket).Read)
	}
	rec(PhaseIPC, 0)

	return done()
}

// scanFiles walks the fd list, decoding each record and collecting the
// dirty page-cache pages that the install must write back to disk. A file
// whose page-cache chain fails or loops is not kept.
func (s *scanner) scanFiles(old *layout.Proc) ([]filePlan, error) {
	var out []filePlan
	var page layout.CachePage
	var files, pages layout.Chain // pages walks each file's chain inside files' walk
	_, err := files.Walk(old.Files, layout.TypeFile, func(cur uint64) (uint64, error) {
		fp := filePlan{addr: cur}
		if err := fp.rec.Read(s.rd.at(CatFile), cur, s.verifyCRC, &s.buf); err != nil {
			return 0, err
		}
		s.parseTime()
		_, err := pages.Walk(fp.rec.CachePages, layout.TypeCachePage, func(cp uint64) (uint64, error) {
			if err := page.Read(s.rd.at(CatCache), cp, s.verifyCRC, &s.buf); err != nil {
				return 0, err
			}
			s.parseTime()
			if page.Dirty && page.Bytes > 0 && page.Bytes <= phys.PageSize {
				buf := make([]byte, page.Bytes)
				if err := s.rd.at(CatUserData).ReadAt(page.Frame*phys.PageSize, buf); err != nil {
					return 0, &layout.CorruptionError{Addr: cp, Want: layout.TypeCachePage, Reason: "cache frame unreadable"}
				}
				fp.dirty = append(fp.dirty, dirtyPage{off: page.FileOff, data: buf})
			}
			return page.Next, nil
		})
		if err != nil {
			return 0, err
		}
		out = append(out, fp)
		return fp.rec.Next, nil
	})
	return out, err
}

// scanRegions decodes the memory-region list.
func (s *scanner) scanRegions(old *layout.Proc) ([]layout.MemRegion, error) {
	var out []layout.MemRegion
	var list layout.Chain
	_, err := list.Walk(old.MemRegions, layout.TypeMemRegion, func(cur uint64) (uint64, error) {
		var r layout.MemRegion
		if err := r.Read(s.rd.at(CatRegion), cur, s.verifyCRC, &s.buf); err != nil {
			return 0, err
		}
		s.parseTime()
		out = append(out, r)
		return r.Next, nil
	})
	return out, err
}

// scanPages walks the dead process's hardware page tables and captures every
// touched page: resident pages are read out of the dead frame, swapped pages
// are read raw off the dead kernel's swap partition. Each resident page is
// read into the scanner's page buffer, where the scan takes its zero test
// and its CRC; only a staged non-zero page (stage) keeps a copy. Swap re-stage bandwidth is charged to the worker's ledger here;
// resident-copy bandwidth is deferred to the serial fast-path
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
		// Each non-zero PTE adds at most one plan: size the slice for the
		// page-table page once instead of regrowing it PTE by PTE.
		mapped := 0
		for t := 0; t < layout.PTEsPerPage; t++ {
			if leU64(ptPage[t*8:]) != 0 {
				mapped++
			}
		}
		out = slices.Grow(out, mapped)
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
				pp := pagePlan{va: va, frame: int32(frame), writable: pte.Writable(), dirty: pte.Dirty()}
				if err := s.rd.at(CatUserData).ReadAt(phys.FrameAddr(frame), s.page[:]); err != nil {
					return out, err
				}
				if phys.PageIsZero(s.page[:]) {
					pp.kind = pageZero
				} else {
					pp.crc = crc32.Checksum(s.page[:], layout.CRCTable)
					if s.stage(frame) {
						pp.data = new([phys.PageSize]byte)
						*pp.data = s.page
					}
				}
				// The copy bandwidth is NOT charged here: the serial
				// fast-path classification (fastpath.go) charges CopyCost,
				// DedupHitCost or ZeroFillCost per page once it knows which
				// of the three the page needs. Byte accounting stays here
				// with the read.
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
				out = append(out, pagePlan{va: va, kind: pageSwapped,
					data: (*[phys.PageSize]byte)(data), writable: pte.Writable()})
				s.charge(s.cost.SwapRestageCost(phys.PageSize))
				*restaged++
			}
		}
	}
	return out, nil
}

// scanShm decodes each shared-memory segment and reads its page contents,
// frame by frame, into the scanner's page buffer, stamping each frame's
// CRC. A staged frame (stage) keeps a copy of its bytes, or zeroPage's when
// it is all zero; any other frame is copied from dead memory at its commit.
func (s *scanner) scanShm(old *layout.Proc) ([]shmPlan, error) {
	var out []shmPlan
	var list layout.Chain
	_, err := list.Walk(old.Shm, layout.TypeShm, func(cur uint64) (uint64, error) {
		var sp shmPlan
		if err := sp.seg.Read(s.rd.at(CatShm), cur, s.verifyCRC, &s.buf); err != nil {
			return 0, err
		}
		s.parseTime()
		for i, f := range sp.seg.Frames {
			if f >= uint64(s.numFrames) {
				return 0, fmt.Errorf("shm frame %d beyond memory", f)
			}
			off := uint64(i) * phys.PageSize
			if off >= sp.seg.Size {
				break
			}
			n := min(sp.seg.Size-off, phys.PageSize)
			buf := s.page[:n]
			if err := s.rd.at(CatUserData).ReadAt(f*phys.PageSize, buf); err != nil {
				return 0, err
			}
			sp.crc = append(sp.crc, crc32.Checksum(buf, layout.CRCTable))
			if !s.stage(int(f)) {
				continue
			}
			if sp.kept == nil {
				sp.kept = make([][]byte, len(sp.seg.Frames))
			}
			if phys.PageIsZero(buf) {
				sp.kept[i] = zeroPage[:n]
			} else {
				sp.kept[i] = bytes.Clone(buf)
			}
		}
		out = append(out, sp)
		s.charge(s.cost.CopyCost(int64(sp.seg.Size)))
		return sp.seg.Next, nil
	})
	return out, err
}

// scanTerminal decodes the terminal record into *rec and reads its screen
// buffer. It returns a copy of the screen when the scan must stage it: a
// screen that crosses a frame boundary, or lies in a staged frame (stage).
// Otherwise it returns nil and the screen's CRC, and the commit copies the
// screen from its dead frame. Pseudo terminals are refused — the prototype
// "can only restore the state of physical terminals".
func (s *scanner) scanTerminal(old *layout.Proc, rec *layout.Terminal) ([]byte, uint32, error) {
	if err := rec.Read(s.rd.at(CatTerminal), old.Terminal, s.verifyCRC, &s.buf); err != nil {
		return nil, 0, err
	}
	s.parseTime()
	if rec.Settings&kernel.TermPseudo != 0 {
		return nil, 0, fmt.Errorf("pseudo terminal %d is not resurrectable", rec.Index)
	}
	n := int(rec.Rows) * int(rec.Cols)
	if int(rec.Screen%phys.PageSize)+n > phys.PageSize || s.stage(phys.FrameOf(rec.Screen)) {
		screen := make([]byte, n)
		if err := s.rd.at(CatTerminal).ReadAt(rec.Screen, screen); err != nil {
			return nil, 0, err
		}
		return screen, 0, nil
	}
	screen := s.page[:n]
	if err := s.rd.at(CatTerminal).ReadAt(rec.Screen, screen); err != nil {
		return nil, 0, err
	}
	return nil, crc32.Checksum(screen, layout.CRCTable), nil
}

// scanPipes decodes the pipe list with each pipe's buffer page.
func (s *scanner) scanPipes(old *layout.Proc) ([]pipePlan, error) {
	var out []pipePlan
	var list layout.Chain
	_, err := list.Walk(old.Pipes, layout.TypePipe, func(cur uint64) (uint64, error) {
		var pp pipePlan
		if err := pp.rec.Read(s.rd.at(CatIPC), cur, s.verifyCRC, &s.buf); err != nil {
			return 0, err
		}
		s.parseTime()
		pp.buf = make([]byte, phys.PageSize)
		if pp.rec.Buf+phys.PageSize <= s.memSize {
			if err := s.rd.at(CatUserData).ReadAt(pp.rec.Buf, pp.buf); err != nil {
				return 0, err
			}
		}
		out = append(out, pp)
		return pp.rec.Next, nil
	})
	return out, err
}

// scanSockets decodes the socket list.
func (s *scanner) scanSockets(old *layout.Proc) ([]layout.Socket, error) {
	var out []layout.Socket
	var list layout.Chain
	_, err := list.Walk(old.Sockets, layout.TypeSocket, func(cur uint64) (uint64, error) {
		var rec layout.Socket
		if err := rec.Read(s.rd.at(CatIPC), cur, s.verifyCRC, &s.buf); err != nil {
			return 0, err
		}
		s.parseTime()
		out = append(out, rec)
		return rec.Next, nil
	})
	return out, err
}

// probe reports whether a pipe or socket list is non-empty. It reads the
// list's head record with read, one record type's decoder, but a list with
// a head counts as present even when that record is corrupt.
func (s *scanner) probe(head uint64, read func(layout.Reader, uint64, bool, *[]byte) error) bool {
	if head == 0 {
		return false
	}
	_ = read(s.rd.at(CatIPC), head, s.verifyCRC, &s.buf)
	s.parseTime()
	return true
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
