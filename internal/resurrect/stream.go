package resurrect

// The resurrection pass: candidate discovery, the commit order, and the one
// scan/commit loop every pass runs.
//
//   - Discovery seeds scanners from the dead kernel's candidate index
//     (internal/layout) when there is one: a compact CRC-framed array the
//     main kernel maintained next to the trace ring, parsed in whole-frame
//     batches instead of per-record list hops. A missing or corrupt index
//     degrades to the full process-list walk with "index-salvage: …"
//     attribution.
//   - The commit order is discovery order for a batch pass. A streamed
//     pass (Config.Stream) sorts candidates by SLO tier, tier-0 critical
//     first, then by PID.
//   - Workers claim candidates through a cursor and scan concurrently,
//     each through one scanner of its own. Once every scan is done, the
//     calling goroutine commits — classify + install — one candidate at a
//     time in commit order, batch and streamed passes alike. No scan can
//     read a frame a commit wrote, and the commits share classification
//     state in a fixed order, so the report and the new kernel are the
//     same at any width. A streamed pass's pipelined commit is the
//     schedule model (sched.Pipeline), not the host's execution order.
//   - What crosses from scan to commit is a plan: the decoded records, the
//     bytes of each frame a commit could overwrite first (scanner.stage),
//     and for every other page, shared-memory frame and screen its dead
//     frame number and CRC, which the commit copies from dead memory and
//     validates as it installs (install.go).

import (
	"sort"
	"sync"
	"time"

	"otherworld/internal/disk"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/sim"
)

// discoverCandidates lists the dead kernel's resurrection candidates:
// from the salvaged candidate index when one is present and intact, else
// by the full process-list walk. Index accounting and skip counts land on
// the report; the fallback attribution records why an existing index was
// rejected.
func (e *Engine) discoverCandidates(rep *Report) ([]Candidate, error) {
	if e.IndexRegion.Frames == 0 {
		return e.ListCandidates()
	}
	cands, used, skipped, reason := e.listViaIndex()
	if reason != "" {
		rep.IndexFallback = "index-salvage: " + reason
		return e.ListCandidates()
	}
	rep.IndexUsed = used
	rep.IndexSkipped = skipped
	return cands, nil
}

// listViaIndex salvages the candidate index out of the dead kernel's
// reservation. All bytes flow through the counting reader under CatIndex,
// and parse overhead is charged per index frame — the whole point: the
// index is read in O(population/16) frame-sized batches where the full
// walk pays a record-parse round trip per process. A non-empty reason
// means the index was unusable and the caller must walk.
func (e *Engine) listViaIndex() (cands []Candidate, used, skipped int, reason string) {
	base := phys.FrameAddr(e.IndexRegion.Start)
	size := e.IndexRegion.Frames * phys.PageSize
	sal, err := layout.ParseIndex(e.rd.at(CatIndex), base, size, e.VerifyCRC)
	if err != nil {
		return nil, 0, 0, err.Error()
	}
	for i := 0; i < e.IndexRegion.Frames; i++ {
		e.parseTime()
	}
	entries := append([]layout.IndexEntry(nil), sal.Entries...)
	// Newest first, exactly like the head-linked process list the full
	// walk traverses, so selection and reporting order match the walk's.
	sort.Slice(entries, func(i, j int) bool { return entries[i].PID > entries[j].PID })
	for _, en := range entries {
		cands = append(cands, Candidate{
			PID:       en.PID,
			Name:      en.Name,
			Program:   en.Program,
			Addr:      en.Addr,
			CrashProc: en.CrashProc,
		})
	}
	return cands, len(entries), sal.Skipped, ""
}

// admissionOrder returns the selected candidates in admission order with
// their tiers: by clamped tier, most critical first, and by PID (creation
// order) within a tier — the commit cursor's ordering contract.
func admissionOrder(cfg Config, selected []Candidate) ([]Candidate, []int) {
	adm := append([]Candidate(nil), selected...)
	sort.Slice(adm, func(a, b int) bool { return adm[a].PID < adm[b].PID })
	sort.SliceStable(adm, func(a, b int) bool {
		return cfg.TierOf(adm[a].Program) < cfg.TierOf(adm[b].Program)
	})
	tiers := make([]int, len(adm))
	for i, c := range adm {
		tiers[i] = cfg.TierOf(c.Program)
	}
	return adm, tiers
}

// runPass scans the candidates over a pool of workers, then commits them in
// order, and fills rep with everything but the schedule (Run already
// completed discovery and selection, set rep.Streamed, and advances the
// clock afterwards).
func (e *Engine) runPass(rep *Report, order []Candidate, workers int, mainSwap *disk.BlockDevice) {
	n := len(order)

	// The lazy install registers its speculation table before any commit:
	// crash procedures run inside commits and may touch speculated pages.
	if e.LazyInstall {
		e.lazy = newLazyState(e)
		e.lazy.installing = true
		e.lazy.report = rep
		e.K.Spec = e.lazy
	}
	// Commits run against a detached clock, so their serially executed
	// virtual time lands on each candidate's span in the modeled schedule
	// instead of accumulating on the machine clock.
	liveClock := e.K.M.Clock
	scratch := sim.NewClock()
	e.K.M.Clock = scratch

	// Workers claim candidates in order through the cursor and scan
	// concurrently (read-only, per-candidate accounting shard and phys.Mem
	// view), each through one scanner of its own. Every scan reads the dead
	// image before the first commit writes into the dead kernel's free
	// frames, which a corrupted page-table entry may name; a frame a commit
	// may write is staged by its scan (scanner.stage), and any other the
	// commit copies from dead memory.
	plans := make([]*plan, n)
	accts := make([]*Accounting, n)
	views := make([]*phys.Mem, n)
	var (
		mu     sync.Mutex
		cursor int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := e.newScanner(mainSwap)
			for {
				mu.Lock()
				i := cursor
				if i >= n {
					mu.Unlock()
					return
				}
				cursor++
				mu.Unlock()

				accts[i] = &Accounting{ByCategory: make(map[string]int64)}
				views[i] = e.K.M.Mem.View()
				plans[i] = sc.scanOne(order[i], accts[i], views[i])
			}
		}()
	}
	wg.Wait()

	// Each plan is committed — classified and installed — in strict commit
	// order, so every mutation of the new kernel and every shared
	// classification decision is a pure function of the candidate order.
	procs := make([]ProcReport, n)
	perScan := make([]time.Duration, n)
	perInstall := make([]time.Duration, n)
	perCand := make([]time.Duration, n)
	ctx := e.newClassifyCtx()
	for i, pl := range plans {
		e.classifyPlan(pl, ctx)
		m0 := scratch.Now()
		pl.resumeClock = -1
		procs[i] = e.installOne(pl)
		inst := scratch.Since(m0)
		perScan[i] = pl.scanDur
		perInstall[i] = inst
		perCand[i] = pl.scanDur + inst
		if pl.resumeClock >= 0 {
			// Lazy candidate: blocked only until context install.
			perCand[i] = pl.scanDur + (pl.resumeClock - m0)
		}
		plans[i] = nil // its staged data is installed; let it go
	}
	e.K.M.Clock = liveClock
	e.frameBuf = nil // a lazy engine outlives the pass; its frame buffer need not
	if e.lazy != nil {
		e.lazy.installing = false
	}

	// Deterministic reduction in commit order: per-candidate shards fold
	// with saturating adds and phys.Mem views fold into the machine's bus
	// counters.
	for i, sh := range accts {
		e.acct.absorb(sh)
		e.K.M.Mem.Absorb(views[i])
	}
	rep.Procs = append(rep.Procs, procs...)
	rep.Acct = e.acct
	rep.PerCandidate = perCand
	rep.PerScan = perScan
	rep.PerInstall = perInstall
	rep.Duration = rep.Prologue
	for _, d := range perCand {
		rep.Duration += d
	}
}
