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
//     pass (Config.Stream) orders candidates by SLO tier, tier-0 critical
//     first, through the deterministic priority queue in internal/sched.
//   - Workers claim candidates through a cursor, scan concurrently, then
//     commit — classify + install — one at a time in commit order: a
//     streamed pass behind the cursor as scans finish, a batch pass after
//     its scan barrier. Commits execute in that fixed order with shared
//     classification state, so the report is bit-identical at any width;
//     only the modeled schedule (Report.ScheduleAt) depends on it.

import (
	"sort"
	"sync"
	"time"

	"otherworld/internal/disk"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/sched"
	"otherworld/internal/sim"
	"otherworld/internal/trace"
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

// admissionOrder runs the selected candidates through the priority queue
// and returns them in admitted order with their tiers. Within a tier,
// candidates are pushed in PID (creation) order, so admission is
// tier-then-PID — the commit cursor's ordering contract.
func admissionOrder(cfg Config, selected []Candidate) ([]Candidate, []int) {
	byPID := make([]int, len(selected))
	for i := range selected {
		byPID[i] = i
	}
	sort.Slice(byPID, func(a, b int) bool {
		return selected[byPID[a]].PID < selected[byPID[b]].PID
	})
	q := sched.NewQueue(sched.DefaultAging)
	for _, idx := range byPID {
		c := selected[idx]
		q.Push(sched.Item{Tier: cfg.TierOf(c.Program), Key: c.PID, Seq: idx})
	}
	adm := make([]Candidate, 0, len(selected))
	tiers := make([]int, 0, len(selected))
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		adm = append(adm, selected[it.Seq])
		tiers = append(tiers, it.Tier)
	}
	return adm, tiers
}

// runPass scans and commits the candidates in order over a pool of workers
// and fills rep with everything but the schedule (Run already completed
// discovery and selection, set rep.Streamed, and advances the clock
// afterwards).
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
	// concurrently (read-only, per-candidate accounting shard, phys.Mem
	// view and event ledger). Each plan is then committed — classified and
	// installed — in strict commit order. The commit is the only
	// serialized section, and it is serialized *in a fixed order*, so
	// every mutation of the new kernel and every shared classification
	// decision is a pure function of the candidate order.
	plans := make([]*plan, n)
	accts := make([]*Accounting, n)
	views := make([]*phys.Mem, n)
	evs := make([][]trace.Event, n)
	procs := make([]ProcReport, n)
	perScan := make([]time.Duration, n)
	perInstall := make([]time.Duration, n)
	perCand := make([]time.Duration, n)
	ctx := e.newClassifyCtx()
	commitOne := func(i int) {
		pl := plans[i]
		if ev := e.classifyPlan(pl, ctx); ev != nil {
			evs[i] = append(evs[i], *ev)
		}
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
	}
	// A streamed pass commits behind the cursor while later scans are still
	// running. A batch pass keeps its scan barrier: every scan reads the
	// dead image before the first install writes into the dead kernel's
	// free frames, which a corrupted page-table entry may name.
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		cursor int
		commit int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
				sc := e.newScanner(accts[i], views[i], mainSwap)
				plans[i] = sc.scanOne(order[i])
				evs[i] = sc.events
				if !rep.Streamed {
					continue
				}

				mu.Lock()
				for commit != i {
					cond.Wait()
				}
				commitOne(i)
				commit++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if !rep.Streamed {
		for i := range plans {
			commitOne(i)
		}
	}
	e.K.M.Clock = liveClock
	e.shmBuf = nil // a lazy engine outlives the pass; its commit buffer need not
	if e.lazy != nil {
		e.lazy.installing = false
	}

	// Deterministic reduction in commit order: per-candidate shards fold
	// with saturating adds, phys.Mem views fold into the machine's bus
	// counters, per-candidate event ledgers merge by candidate-local
	// logical time.
	for i, sh := range accts {
		e.acct.absorb(sh)
		e.K.M.Mem.Absorb(views[i])
	}
	rep.ScanTrace = trace.Merge(evs...)
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
