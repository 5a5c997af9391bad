package resurrect

import (
	"fmt"
	"hash/crc32"
	"sort"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
)

// lazy.go is the demand-paged half of the lazy resurrection install
// (Engine.LazyInstall). The classification pass (fastpath.go) marks safe
// resident pages speculated; the install maps them copy-on-access straight
// from the dead kernel's frames (kernel.InstallSpeculatedPage) and registers
// them here. The process then resumes as soon as its resurrection-critical
// records parse, and each page is materialized later:
//
//   - on first touch, via the kernel's page-fault path
//     (kernel.SpeculationResolver.ResolveSpeculated): the dead frame is
//     re-read, CRC-validated against the scan-time stamp, copied into a
//     fresh private frame, and the dead frame is freed;
//   - or by the background sweeper (SweepSpeculated), which the scheduler
//     calls each round so speculation drains even for pages the program
//     never touches. Sweep order is sorted (PID, VA) — deterministic and
//     replayable.
//
// A page that fails first-touch validation aborts speculation for its whole
// candidate: every outstanding page of that process is installed from its
// shadow (the scan-time copy the eager path would have used), so a corrupt
// speculation degrades to exactly the eager result, with the reason kept as
// structured attribution (ProcReport.SpecFallback mid-resume, the fallbacks
// table and resurrect_spec_fallbacks_total afterwards).

// firstTouchBounds buckets the demand-paging stall a resumed process pays on
// first touch of a speculated page: validation plus copy, virtual
// nanoseconds in decade buckets (100ns .. 1ms).
var firstTouchBounds = []int64{1e2, 1e3, 1e4, 1e5, 1e6}

// specEntry is one outstanding copy-on-access page.
type specEntry struct {
	va        uint64
	deadFrame int
	// crc is the scan-time CRC32 of the page; the first touch recomputes it
	// over the live frame to detect corruption between scan and touch.
	crc uint32
	// shadow is the scan-time snapshot of the page — what the eager path
	// would have installed. The fallback path installs it when validation
	// fails, so a corrupt speculation degrades to the eager result.
	shadow   []byte
	writable bool
	dirty    bool
}

// lazyState is the engine's speculation table plus the counting reader the
// first-touch validation reads dead frames through. It implements
// kernel.SpeculationResolver; Run registers it on the crash kernel before
// the install phase, so touches during the crash procedures already resolve
// through it.
type lazyState struct {
	e *Engine
	// rd is the sanctioned dead-memory accessor for speculative re-reads.
	// Its accounting is private to the lazy path: the Report's Table 4
	// ledger is sealed when Run publishes, so post-resume reads surface
	// through resurrect_spec_read_bytes_total instead.
	rd   reader
	acct Accounting
	// pages is pid → va → entry. Iteration is always over sorted keys.
	pages map[uint32]map[uint64]*specEntry
	// fallbacks is the structured attribution of abandoned speculations,
	// pid → reason. Mid-resume entries are consumed into the ProcReport by
	// installOne (takeFallback); post-resume entries stay for inspection.
	fallbacks map[uint32]string
	// installing is true while Run's serial install phase (including its
	// crash procedures) executes; it keeps the fallback counter from double
	// counting procs the publish pass already attributes.
	installing bool
	// report is the pass's published report; first-touch stalls append to
	// its FirstTouch slice at resolve time so post-mortem consumers (the
	// span plane, Table 6 percentiles) see every demand fault the resumed
	// processes paid, not just the ones inside Run.
	report *Report
}

func newLazyState(e *Engine) *lazyState {
	ls := &lazyState{
		e:         e,
		acct:      Accounting{ByCategory: make(map[string]int64)},
		pages:     make(map[uint32]map[uint64]*specEntry),
		fallbacks: make(map[uint32]string),
	}
	ls.rd = reader{mem: e.K.M.Mem, acct: &ls.acct}
	return ls
}

// register records one installed speculated page for later resolution.
func (ls *lazyState) register(pid uint32, pg *pagePlan) {
	byVA := ls.pages[pid]
	if byVA == nil {
		byVA = make(map[uint64]*specEntry)
		ls.pages[pid] = byVA
	}
	byVA[pg.va] = &specEntry{
		va:        pg.va,
		deadFrame: pg.frame,
		crc:       pg.crc,
		shadow:    pg.data,
		writable:  pg.writable,
		dirty:     pg.dirty,
	}
}

// outstanding returns how many speculated pages are still unresolved.
func (ls *lazyState) outstanding() int {
	n := 0
	for _, byVA := range ls.pages {
		n += len(byVA)
	}
	return n
}

// takeFallback consumes the recorded fallback reason for pid, if any.
func (ls *lazyState) takeFallback(pid uint32) (string, bool) {
	reason, ok := ls.fallbacks[pid]
	if ok {
		delete(ls.fallbacks, pid)
	}
	return reason, ok
}

// drop removes one resolved entry.
func (ls *lazyState) drop(pid uint32, va uint64) {
	byVA := ls.pages[pid]
	delete(byVA, va)
	if len(byVA) == 0 {
		delete(ls.pages, pid)
	}
}

// sortedPIDs / sortedVAs fix the iteration order everywhere the table is
// walked — map range order must never reach the simulation.
func (ls *lazyState) sortedPIDs() []uint32 {
	pids := make([]uint32, 0, len(ls.pages))
	for pid := range ls.pages {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}

func sortedVAs(byVA map[uint64]*specEntry) []uint64 {
	vas := make([]uint64, 0, len(byVA))
	for va := range byVA {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	return vas
}

// ResolveSpeculated materializes the speculated page at va on first touch
// (kernel.SpeculationResolver). The stall — validation plus copy — is
// charged to the machine clock, i.e. the consuming process's timeline. It
// runs after the pass published its ledger, so nothing reachable from here
// may write the sealed accounting (owvet sealedacct).
//
//owvet:postseal
func (ls *lazyState) ResolveSpeculated(p *kernel.Process, va uint64) error {
	ent := ls.pages[p.PID][va]
	if ent == nil {
		return fmt.Errorf("resurrect: no speculation recorded for pid %d page %#x", p.PID, va)
	}
	return ls.resolveEntry(p, ent, "touch")
}

// resolveEntry validates and copies one entry. trigger labels the metrics:
// "touch" for demand faults, "sweep" for the background sweeper.
func (ls *lazyState) resolveEntry(p *kernel.Process, ent *specEntry, trigger string) error {
	e := ls.e
	cost := e.K.Cost()
	start := e.K.M.Clock.Now()
	buf := make([]byte, phys.PageSize)
	rerr := ls.rd.at(CatUserData).ReadAt(phys.FrameAddr(ent.deadFrame), buf)
	e.specCounter("resurrect_spec_read_bytes_total",
		"dead-kernel bytes re-read to validate speculated pages", nil).Add(pageBytes)
	e.K.M.Clock.Advance(cost.SpecValidateCost)
	if rerr != nil || crc32.Checksum(buf, layout.CRCTable) != ent.crc {
		reason := fmt.Sprintf("crc: page %#x of pid %d failed first-touch validation", ent.va, p.PID)
		if rerr != nil {
			reason = fmt.Sprintf("crc: speculated frame %d for page %#x unreadable: %v", ent.deadFrame, ent.va, rerr)
		}
		return ls.fallbackCandidate(p, reason)
	}
	e.K.M.Clock.Advance(cost.CopyCost(pageBytes))
	if err := e.K.InstallResidentPage(p, ent.va, buf, ent.writable, ent.dirty); err != nil {
		return err
	}
	e.K.Alloc.Free(ent.deadFrame)
	ls.drop(p.PID, ent.va)
	e.specCounter("resurrect_spec_resolved_total",
		"speculated pages materialized, by trigger",
		metrics.Labels{"trigger": trigger}).Inc()
	if trigger == "touch" {
		stall := e.K.M.Clock.Since(start)
		e.specHistogram("resurrect_first_touch_ns",
			"demand-paging stall on first touch of a speculated page",
			firstTouchBounds, nil).Observe(int64(stall))
		if ls.report != nil {
			ls.report.FirstTouch = append(ls.report.FirstTouch, stall)
		}
	}
	return nil
}

// fallbackCandidate abandons speculation for p: every outstanding page of
// the process is installed from its shadow — the scan-time copy, identical
// to what the eager install would have written — and the dead frames are
// released. The whole candidate falls back, not just the failed page: one
// frame that changed under the scan means the dead image can no longer be
// trusted page-by-page.
func (ls *lazyState) fallbackCandidate(p *kernel.Process, reason string) error {
	e := ls.e
	cost := e.K.Cost()
	byVA := ls.pages[p.PID]
	n := 0
	for _, va := range sortedVAs(byVA) {
		ent := byVA[va]
		e.K.M.Clock.Advance(cost.CopyCost(int64(len(ent.shadow))))
		if err := e.K.InstallResidentPage(p, ent.va, ent.shadow, ent.writable, ent.dirty); err != nil {
			return err
		}
		e.K.Alloc.Free(ent.deadFrame)
		n++
	}
	delete(ls.pages, p.PID)
	ls.fallbacks[p.PID] = reason
	e.specCounter("resurrect_spec_resolved_total",
		"speculated pages materialized, by trigger",
		metrics.Labels{"trigger": "fallback"}).Add(int64(n))
	if !ls.installing {
		// Mid-resume fallbacks are counted by publish from the ProcReport
		// attribution; post-resume ones count here, at event time.
		e.specCounter("resurrect_spec_fallbacks_total",
			"candidates whose speculation was abandoned for the eager copy",
			metrics.Labels{"stage": "runtime"}).Inc()
	}
	return nil
}

// SweepSpeculated resolves up to limit outstanding pages in sorted
// (PID, VA) order (kernel.SpeculationResolver); the scheduler calls it each
// round so speculation drains deterministically even for untouched pages.
// Entries of exited processes are released instead — their dead frames go
// back to the allocator without a copy. Like ResolveSpeculated, this runs
// after the ledger sealed (owvet sealedacct).
//
//owvet:postseal
func (ls *lazyState) SweepSpeculated(limit int) (int, error) {
	if limit <= 0 || len(ls.pages) == 0 {
		return 0, nil
	}
	done := 0
	for _, pid := range ls.sortedPIDs() {
		if done >= limit {
			break
		}
		p := ls.e.K.Lookup(pid)
		if p == nil || p.Exited {
			done += ls.releasePID(pid)
			continue
		}
		byVA := ls.pages[pid]
		for _, va := range sortedVAs(byVA) {
			if done >= limit {
				break
			}
			ent := byVA[va]
			if ent == nil {
				continue
			}
			if err := ls.resolveEntry(p, ent, "sweep"); err != nil {
				return done, err
			}
			done++
			if _, live := ls.pages[pid]; !live {
				// A sweep-time CRC failure fell the whole candidate back;
				// its remaining VAs are already installed.
				break
			}
		}
	}
	return done, nil
}

// releasePID frees the speculated frames of a process that exited before
// resolving them; nobody will ever fault them in.
func (ls *lazyState) releasePID(pid uint32) int {
	byVA := ls.pages[pid]
	n := 0
	for _, va := range sortedVAs(byVA) {
		ls.e.K.Alloc.Free(byVA[va].deadFrame)
		n++
	}
	delete(ls.pages, pid)
	ls.e.specCounter("resurrect_spec_resolved_total",
		"speculated pages materialized, by trigger",
		metrics.Labels{"trigger": "release"}).Add(int64(n))
	return n
}

// specCounter / specHistogram are the lazy path's registry accessors; a nil
// registry degrades to no-ops like everywhere else.
func (e *Engine) specCounter(name, help string, l metrics.Labels) metrics.Counter {
	return e.Metrics.Counter(name, help, l)
}

func (e *Engine) specHistogram(name, help string, bounds []int64, l metrics.Labels) metrics.Histogram {
	return e.Metrics.Histogram(name, help, bounds, l)
}
