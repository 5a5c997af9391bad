// Package resurrect implements the crash kernel's application-resurrection
// engine (Section 3.3): after a microreboot it parses the dead main
// kernel's data structures out of raw physical memory — process
// descriptors, memory regions, hardware page tables, open-file records,
// page-cache entries, terminals, signal tables, shared memory — and
// rebuilds the selected processes inside the freshly booted crash kernel,
// finishing with the crash-procedure call and the Table 1 policy decision.
//
// Every byte the engine reads from main-kernel memory is counted by
// category, which is how Table 4 ("size of the data read by the crash
// kernel during the resurrection process") is measured.
package resurrect

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"otherworld/internal/disk"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/sched"
	"otherworld/internal/trace"
)

// Category labels for byte accounting.
const (
	CatGlobals   = "globals"
	CatProc      = "proc"
	CatRegion    = "memregion"
	CatPageTable = "pagetable"
	CatFile      = "file"
	CatCache     = "pagecache"
	CatTerminal  = "terminal"
	CatSignals   = "signals"
	CatShm       = "shm"
	CatIPC       = "ipc"
	CatContext   = "context"
	CatUserData  = "userdata"
	CatSwapData  = "swapdata"
	// CatTrace counts the dead kernel's flight-recorder ring. It is
	// deliberately not a kernelDataCats member: Table 4 measures the data
	// needed to rebuild processes, and the ring is diagnostic only.
	CatTrace = "trace"
	// CatIndex counts the dead kernel's candidate index — the compact
	// per-process record extents the index-assisted walker salvages
	// instead of walking the whole process list. Zero when the index is
	// off, so legacy ledgers are unchanged.
	CatIndex = "index"
)

// kernelDataCats are the categories Table 4 counts as main-kernel data (it
// excludes the application page contents themselves).
var kernelDataCats = []string{
	CatGlobals, CatProc, CatRegion, CatPageTable, CatFile, CatCache,
	CatTerminal, CatSignals, CatShm, CatIPC, CatContext, CatIndex,
}

// Accounting tallies bytes read from the dead kernel's memory.
type Accounting struct {
	ByCategory map[string]int64
}

// total sums bytes read across every category.
func (a *Accounting) total() int64 {
	var n int64
	for _, v := range a.ByCategory {
		n += v
	}
	return n
}

// KernelDataBytes returns the Table 4 numerator: main-kernel data read.
func (a *Accounting) KernelDataBytes() int64 {
	var n int64
	for _, c := range kernelDataCats {
		n += a.ByCategory[c]
	}
	return n
}

// PageTableBytes returns the page-table portion.
func (a *Accounting) PageTableBytes() int64 { return a.ByCategory[CatPageTable] }

// PageTableFraction returns page-table bytes over kernel-data bytes.
func (a *Accounting) PageTableFraction() float64 {
	total := a.KernelDataBytes()
	if total == 0 {
		return 0
	}
	return float64(a.ByCategory[CatPageTable]) / float64(total)
}

// reader is the counting accessor the engine parses main memory through.
// It is the one sanctioned path to raw dead-kernel bytes: every read is
// charged to a Table 4 accounting category before it reaches phys.Mem.
//
//owvet:reader
type reader struct {
	mem  *phys.Mem
	acct *Accounting
	cat  string
}

func (r *reader) ReadAt(addr uint64, buf []byte) error {
	r.acct.ByCategory[r.cat] += int64(len(buf))
	return r.mem.ReadAt(addr, buf)
}

// WriteAt is required by layout.MemoryAccessor but the engine never writes
// into the dead kernel's memory.
func (r *reader) WriteAt(addr uint64, buf []byte) error {
	return errors.New("resurrect: main kernel memory is read-only during resurrection")
}

func (r *reader) at(cat string) *reader {
	r.cat = cat
	return r
}

// Candidate is one process found in the dead kernel's process list — the
// list shown to the interactive user, or matched against the resurrection
// configuration file (Section 3.3).
type Candidate struct {
	PID     uint32
	Name    string
	Program string
	// Addr is the descriptor's physical address in the dead kernel.
	Addr uint64
	// CrashProc is the registered crash-procedure name ("" if none).
	CrashProc string
}

// Config is the resurrection configuration: which processes to revive and
// how wide the scan pool fans out.
type Config struct {
	// All resurrects every candidate.
	All bool
	// Names lists process names to resurrect when All is false.
	Names []string
	// Workers is the scan-pool width (0 = NumCPU). Parallelism never
	// changes the Report, the Accounting, the new kernel's state or any
	// rendered table — only the live schedule the machine clock models;
	// see Report.Fingerprint and ScheduleAt.
	Workers int
	// Stream enables streaming resurrection: candidates are admitted in
	// SLO-tier order through a deterministic priority queue (internal/
	// sched) and modeled with the install commit pipelined per candidate
	// behind a tier-then-PID-order cursor, so the first tier-0 process
	// resumes as soon as its own scan and commit are done instead of
	// waiting for the whole batch's scan barrier. Off (the default) commits
	// in discovery order and models the classic scan-then-install batch:
	// round-robin shards, a scan barrier, then serial installs.
	Stream bool
	// Tiers maps a program name to its admission tier (0 critical … 2
	// batch) when streaming; programs not listed get DefaultTier. Lookup
	// only — never iterated — so map order cannot leak into the schedule.
	Tiers map[string]int
}

// DefaultTier is the admission tier for programs Config.Tiers does not
// name.
const DefaultTier = sched.TierStandard

// TierOf resolves a program's admission tier.
func (c Config) TierOf(program string) int {
	if t, ok := c.Tiers[program]; ok {
		return sched.ClampTier(t)
	}
	return DefaultTier
}

// Wants reports whether the configuration selects the candidate.
func (c Config) Wants(cand Candidate) bool {
	if c.All {
		return true
	}
	for _, n := range c.Names {
		if n == cand.Name {
			return true
		}
	}
	return false
}

// Outcome is the per-process resurrection result.
type Outcome int

// Outcomes.
const (
	// OutcomeContinued: execution resumes from the interruption point.
	OutcomeContinued Outcome = iota
	// OutcomeRestarted: the crash procedure saved state and the
	// application was started fresh.
	OutcomeRestarted
	// OutcomeGaveUp: the crash procedure abandoned recovery.
	OutcomeGaveUp
	// OutcomeFailed: corruption of main-kernel structures (or a missing
	// resource with no crash procedure) prevented resurrection.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeContinued:
		return "continued"
	case OutcomeRestarted:
		return "restarted"
	case OutcomeGaveUp:
		return "gave-up"
	case OutcomeFailed:
		return "failed"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// ProcReport describes one process's resurrection.
type ProcReport struct {
	Candidate Candidate
	Outcome   Outcome
	// NewPID is the process's PID under the crash kernel.
	NewPID uint32
	// Missing is the unresurrected-resource bitmask passed to the crash
	// procedure.
	Missing kernel.ResourceMask
	// CrashProcCalled reports whether a crash procedure ran.
	CrashProcCalled bool
	// Err explains a failure.
	Err error
	// PagesCopied / PagesRestaged count resident and swapped pages.
	PagesCopied   int
	PagesRestaged int
	// PagesElided counts resident pages installed by zero-fill instead of
	// copy (the fast path's all-zero elision); PagesDeduped counts pages
	// whose contents were filled from the dedup cache's canonical copy.
	// Both are subsets of PagesCopied.
	PagesElided  int
	PagesDeduped int
	// PagesSpeculated counts resident pages the lazy install mapped
	// copy-on-access from the dead kernel instead of copying (also a
	// subset of PagesCopied); zero for eager installs.
	PagesSpeculated int
	// SavedBytes is the actual copy volume zero elision and dedup avoided:
	// the sum over elided/deduped pages of the bytes their regions cover in
	// the page, not a frame-sized 4 KB per page (a tail page of a
	// non-page-multiple region saves only its live tail).
	SavedBytes int64
	// SpecFallback is the structured attribution when the lazy install
	// abandoned speculation for this process — validation refusal at
	// classify time, or a CRC mismatch on a touch during the crash
	// procedure. Empty for eager installs and clean speculations. It is
	// deliberately excluded from Fingerprint: an all-fallback lazy pass
	// must fingerprint identically to the eager pass it degraded to.
	SpecFallback string
	// DirtyFlushed counts dirty page-cache pages written to disk;
	// FlushExtents counts the block-sorted extents the write-combining
	// queue merged them into (one modeled seek each).
	DirtyFlushed int
	FlushExtents int
	// FlushedPages identifies the dirty page-cache pages this candidate's
	// install wrote back, for the block-layer crash model's orphan
	// accounting: a dead-kernel dirty page resurrection flushed is no
	// orphan. Excluded from Fingerprint — DirtyFlushed/FlushExtents
	// already pin the flush — so the handoff cannot perturb goldens.
	FlushedPages []FlushedPage
	// Timeline records the phases this resurrection went through, with
	// per-phase byte/page counters and the failure (if any) in place.
	Timeline Timeline
}

// FlushedPage names one dirty page-cache page the install flushed.
type FlushedPage struct {
	Path string
	Off  int64
}

// Report is the whole resurrection pass.
type Report struct {
	Candidates []Candidate
	Procs      []ProcReport
	// Acct is the published Table 4 ledger: part of the fingerprint, frozen
	// once Engine.publish has sealed the pass.
	//
	//owvet:sealed
	Acct Accounting
	// Duration is the virtual time of the *serial* schedule: prologue
	// plus the sum of every candidate's scan+install time. It does not
	// depend on Config.Workers (the live parallel schedule is in
	// Parallel), so campaigns stay replayable at any pool width.
	Duration time.Duration
	// Prologue is the serial lead-in before candidates fan out: trace
	// salvage, candidate listing, swap-table resolution.
	Prologue time.Duration
	// PerCandidate is each selected candidate's scan+install virtual
	// time, in stable candidate order — the input ScheduleAt replays.
	PerCandidate []time.Duration
	// PerScan / PerInstall split each candidate's virtual time into its
	// read-only scan and its full install (crash procedure included), in
	// the same order as Procs/PerCandidate. They feed the pipelined-commit
	// schedule model (ScheduleAt for streamed passes, FirstResumeAt for
	// both). Width-independent like PerCandidate.
	PerScan    []time.Duration
	PerInstall []time.Duration
	// Streamed records that this pass ran the streaming (admission-
	// scheduled, pipelined-commit) path; Tiers is then each candidate's
	// admission tier, aligned with Procs. Both are fingerprinted only for
	// streamed passes, so classic-path goldens are untouched.
	Streamed bool
	Tiers    []int
	// IndexUsed / IndexSkipped report index-assisted discovery: entries
	// salvaged from the dead kernel's candidate index, and slots skipped
	// as corrupt or stale (skip-and-count). IndexFallback carries the
	// "index-salvage: …" attribution when the index was present but
	// unusable and discovery fell back to the full process-list walk.
	IndexUsed     int
	IndexSkipped  int
	IndexFallback string
	// Parallel is the live schedule this pass actually executed. It is
	// the only worker-count-dependent block in the report and is
	// excluded from Fingerprint.
	Parallel ParallelStats
	// ScanTrace is the merged per-worker scan event sequence (one event
	// per candidate phase), ordered by candidate-local logical time with
	// ties broken on candidate PID — identical at any worker count.
	ScanTrace []trace.Event
	// FirstTouch collects each demand-fault stall a resumed process paid on
	// first touch of a speculated page (lazy install only), in touch order.
	// Touches happen on the serial post-resume execution path, so the slice
	// is worker-count-independent; it keeps filling after Run returns, as
	// the workload faults pages in. Excluded from Fingerprint — the span
	// plane and Table 6 percentiles pin it through their own goldens.
	FirstTouch []time.Duration
	// Trace is the dead kernel's flight recorder, parsed out of the crash
	// area's ring sub-region (nil when the engine was given no ring).
	Trace *trace.Parsed
}

// Succeeded counts processes that continued or restarted.
func (r *Report) Succeeded() int {
	n := 0
	for _, p := range r.Procs {
		if p.Outcome == OutcomeContinued || p.Outcome == OutcomeRestarted {
			n++
		}
	}
	return n
}

// Engine drives resurrection inside a freshly booted crash kernel.
type Engine struct {
	// K is the crash kernel performing the resurrection.
	K *kernel.Kernel
	// MainGlobals is the dead kernel's globals anchor (the fixed
	// compile-time physical address).
	MainGlobals uint64
	// VerifyCRC enables checksum validation while parsing the dead
	// kernel's records (Section 4's integrity hardening).
	VerifyCRC bool
	// MapPages enables the footnote-3 optimization: resident pages are
	// mapped in place instead of copied, "which would significantly
	// increase the speed of resurrection of large processes".
	MapPages bool
	// ResurrectIPC enables the Section 7 future-work extension: pipes
	// (when their semaphore was free at failure time) and sockets are
	// restored instead of reported as missing. The paper's prototype did
	// not do this; it is off by default.
	ResurrectIPC bool
	// LazyInstall enables the demand-paged install (fastpath.go, lazy.go):
	// validated candidates speculate their non-zero resident pages —
	// mapped copy-on-access from the dead kernel's frames, CRC-validated
	// on first touch, completed by the scheduler's background sweeper —
	// and resume as soon as their resurrection-critical records parse.
	// PerCandidate and Duration then measure time-to-resume (the blocked
	// span) instead of time-to-full-copy; a speculated page that fails
	// validation falls its whole candidate back to the eager full copy.
	LazyInstall bool
	// TraceRegion is the dead kernel's flight-recorder ring (zero region
	// when tracing is off); Run parses it into Report.Trace through the
	// counting reader.
	TraceRegion phys.Region
	// IndexRegion is the dead kernel's candidate index (zero region when
	// the index is off); discovery salvages it through the counting
	// reader and falls back to the full process-list walk when it is
	// missing or corrupt.
	IndexRegion phys.Region
	// Metrics receives the pass's instrumentation (nil disables). Scan
	// workers write concurrently — counter adds only, with per-candidate
	// values that are pure functions of the candidate — and the rest is
	// published serially from the Report, so the registry snapshot is
	// bit-identical at any Workers setting.
	Metrics *metrics.Registry

	rd reader
	// acct is the working copy of the Table 4 ledger. Sealed at
	// Engine.publish: post-seal paths (the lazy resolver/sweeper) account
	// into lazyState's private shard instead.
	//
	//owvet:sealed
	acct Accounting
	// lazy is the speculation table when LazyInstall is on; it outlives Run
	// (registered as K.Spec) so post-resume touches and the scheduler's
	// sweeper can keep resolving pages.
	lazy *lazyState
	// shmBuf is the commits' shared-memory assembly buffer (installShm).
	shmBuf []byte
}

// NewEngine prepares an engine over the crash kernel k.
func NewEngine(k *kernel.Kernel, mainGlobals uint64, verifyCRC bool) *Engine {
	e := &Engine{
		K:           k,
		MainGlobals: mainGlobals,
		VerifyCRC:   verifyCRC,
		acct:        Accounting{ByCategory: make(map[string]int64)},
	}
	e.rd = reader{mem: k.M.Mem, acct: &e.acct}
	return e
}

// parseTime charges the fixed record-parse overhead to the virtual clock.
func (e *Engine) parseTime() {
	e.K.M.Clock.Advance(e.K.Cost().RecordParseOverhead)
}

// ListCandidates walks the dead kernel's process list. A corrupted globals
// anchor or list produces an error: with nothing to anchor on, no process
// can be resurrected.
func (e *Engine) ListCandidates() ([]Candidate, error) {
	g, err := layout.ReadGlobals(e.rd.at(CatGlobals), e.MainGlobals, e.VerifyCRC)
	if err != nil {
		return nil, fmt.Errorf("resurrect: main kernel globals: %w", err)
	}
	e.parseTime()
	var out []Candidate
	cur := g.ProcListHead
	for hops := 0; cur != 0; hops++ {
		if hops > 65536 {
			return out, errors.New("resurrect: process list loop")
		}
		p, err := layout.ReadProc(e.rd.at(CatProc), cur, e.VerifyCRC)
		if err != nil {
			// The rest of the list is unreachable; report what we have.
			return out, fmt.Errorf("resurrect: process record at %#x: %w", cur, err)
		}
		e.parseTime()
		if p.State != layout.ProcZombie {
			out = append(out, Candidate{
				PID:       p.PID,
				Name:      p.Name,
				Program:   p.Program,
				Addr:      cur,
				CrashProc: p.CrashProc,
			})
		}
		cur = p.Next
	}
	return out, nil
}

// MainSwapDevice resolves the dead kernel's swap partition by reading its
// swap-area table and reopening the device by symbolic name (Section 3.3).
func (e *Engine) MainSwapDevice() (devName string, err error) {
	g, err := layout.ReadGlobals(e.rd.at(CatGlobals), e.MainGlobals, e.VerifyCRC)
	if err != nil {
		return "", err
	}
	if g.SwapTable == 0 {
		return "", nil
	}
	t, err := layout.ReadSwapTable(e.rd.at(CatGlobals), g.SwapTable, e.VerifyCRC)
	if err != nil {
		return "", fmt.Errorf("resurrect: swap table: %w", err)
	}
	e.parseTime()
	for _, a := range t.Areas {
		if a.Active {
			return a.Device, nil
		}
	}
	return "", nil
}

// Run performs the full resurrection pass for the configured processes and
// returns the report. The crash kernel must already be booted with working
// memory available (AddFreeFrames).
//
// After a serial prologue (trace salvage, discovery, swap resolution), the
// selected candidates run through the one scan/commit loop (stream.go) over
// cfg.Workers goroutines: in discovery order for a batch pass, which
// commits only after every scan, and in SLO-tier admission order for a
// streamed one, which commits as scans finish. The machine clock then
// advances by the pass's modeled schedule at the live width
// (Report.ScheduleAt's model, over the full installs) while
// Report.Duration keeps the serial sum, so every recorded number is
// identical at any worker count.
func (e *Engine) Run(cfg Config) *Report {
	start := e.K.M.Clock.Now()
	rep := &Report{Acct: Accounting{ByCategory: e.acct.ByCategory}}
	if e.TraceRegion.Frames > 0 {
		// Salvage the dead kernel's flight recorder before touching
		// anything else: it tells the crash kernel what the main kernel
		// was doing when it died.
		rep.Trace = trace.Parse(e.rd.at(CatTrace), e.TraceRegion)
	}
	cands, err := e.discoverCandidates(rep)
	rep.Candidates = cands
	if err != nil && len(cands) == 0 {
		// Anchor corrupt: every selected process fails.
		rep.Duration = e.K.M.Clock.Since(start)
		rep.Prologue = rep.Duration
		rep.Parallel = ParallelStats{Workers: 1, Duration: rep.Duration}
		e.publish(rep)
		return rep
	}
	mainSwapName, _ := e.MainSwapDevice()
	var mainSwap *disk.BlockDevice
	if mainSwapName != "" {
		// One shared handle for all workers; BlockDevice serializes
		// access internally.
		if dev, derr := e.K.M.Bus.Open(mainSwapName); derr == nil {
			mainSwap = dev
		}
	}
	var selected []Candidate
	for _, cand := range cands {
		if cfg.Wants(cand) {
			selected = append(selected, cand)
		}
	}
	order := selected
	if cfg.Stream {
		order, rep.Tiers = admissionOrder(cfg, selected)
		rep.Streamed = true
	}
	workers := cfg.effectiveWorkers(len(order))
	rep.Prologue = e.K.M.Clock.Since(start)
	e.runPass(rep, order, workers, mainSwap)
	// The machine advances by the modeled schedule over the *full* installs
	// — lazy or not, the install work all happened — while Duration sums
	// only the blocked spans, the per-process interruption the paper's
	// tables measure. The serial morph epilogue is charged by core after
	// Run returns.
	_, makespan := rep.scheduleAt(workers, rep.PerInstall)
	e.K.M.Clock.Advance(makespan)
	rep.Parallel = ParallelStats{Workers: workers, Duration: e.K.M.Clock.Since(start)}
	e.publish(rep)
	return rep
}

// satAdd is saturating int64 addition, used when folding accounting shards
// so a (hypothetical) overflow clamps instead of wrapping negative.
func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	if b < 0 && a < math.MinInt64-b {
		return math.MinInt64
	}
	return a + b
}

// absorb folds one worker's accounting shard into a.
func (a *Accounting) absorb(s *Accounting) {
	for cat, v := range s.ByCategory {
		a.ByCategory[cat] = satAdd(a.ByCategory[cat], v)
	}
}

// Fingerprint renders every worker-count-independent part of the report as
// a deterministic string: the determinism tests assert it is byte-identical
// at Workers=1 and Workers=N. Parallel (the live schedule) and Trace (the
// dead ring, compared separately) are deliberately excluded.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "candidates=%d\n", len(r.Candidates))
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, "cand pid=%d name=%s prog=%s addr=%#x crashproc=%s\n",
			c.PID, c.Name, c.Program, c.Addr, c.CrashProc)
	}
	for _, p := range r.Procs {
		fmt.Fprintf(&b, "proc pid=%d outcome=%s newpid=%d missing=%v cpcalled=%v copied=%d elided=%d deduped=%d spec=%d saved=%d restaged=%d flushed=%d extents=%d err=%v\n",
			p.Candidate.PID, p.Outcome, p.NewPID, p.Missing, p.CrashProcCalled,
			p.PagesCopied, p.PagesElided, p.PagesDeduped,
			p.PagesSpeculated, p.SavedBytes,
			p.PagesRestaged, p.DirtyFlushed, p.FlushExtents, p.Err)
		for _, st := range p.Timeline {
			fmt.Fprintf(&b, "  phase=%s pages=%d bytes=%d dur=%v err=%q\n",
				st.Phase, st.Pages, st.Bytes, st.Duration, st.Err)
		}
	}
	cats := make([]string, 0, len(r.Acct.ByCategory))
	for cat := range r.Acct.ByCategory {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Fprintf(&b, "acct %s=%d\n", cat, r.Acct.ByCategory[cat])
	}
	fmt.Fprintf(&b, "prologue=%v duration=%v\n", r.Prologue, r.Duration)
	for i, d := range r.PerCandidate {
		fmt.Fprintf(&b, "percand[%d]=%v\n", i, d)
	}
	// Stream/index lines are printed only when those features ran, so every
	// classic-path golden stays byte-identical.
	if r.IndexUsed > 0 || r.IndexSkipped > 0 || r.IndexFallback != "" {
		fmt.Fprintf(&b, "index used=%d skipped=%d fallback=%q\n",
			r.IndexUsed, r.IndexSkipped, r.IndexFallback)
	}
	if r.Streamed {
		for i := range r.PerScan {
			tier := 0
			if i < len(r.Tiers) {
				tier = r.Tiers[i]
			}
			fmt.Fprintf(&b, "admit[%d] tier=%d scan=%v install=%v\n",
				i, tier, r.PerScan[i], r.PerInstall[i])
		}
	}
	for _, ev := range r.ScanTrace {
		fmt.Fprintf(&b, "ev %v\n", ev)
	}
	return b.String()
}

// applyPolicy runs the crash procedure (if registered) and decides the
// final outcome per Table 1.
func (e *Engine) applyPolicy(np *kernel.Process, cand Candidate, pr ProcReport) ProcReport {
	env := &kernel.Env{K: e.K, P: np}
	proc := kernel.LookupCrashProc(cand.CrashProc)
	if cand.CrashProc == "" || proc == nil {
		if pr.Missing != 0 {
			pr.Outcome = OutcomeFailed
			pr.Err = fmt.Errorf("resources not resurrected (%s) and no crash procedure", pr.Missing)
			_ = e.K.Exit(np, 1)
			return pr
		}
		if err := np.Prog.Rehydrate(env); err != nil {
			pr.Outcome = OutcomeFailed
			pr.Err = fmt.Errorf("rehydrate: %w", err)
			_ = e.K.Exit(np, 1)
			return pr
		}
		pr.Outcome = OutcomeContinued
		return pr
	}

	pr.CrashProcCalled = true
	before := e.K.FS.BytesWritten()
	action, err := proc(env, pr.Missing)
	// Charge the crash procedure's disk writes to the virtual clock.
	e.K.M.Clock.Advance(e.K.Cost().DiskWriteCost(e.K.FS.BytesWritten() - before))
	if err != nil {
		pr.Outcome = OutcomeFailed
		pr.Err = fmt.Errorf("crash procedure: %w", err)
		_ = e.K.Exit(np, 1)
		return pr
	}
	switch action {
	case kernel.ActionContinue:
		if rerr := np.Prog.Rehydrate(env); rerr != nil {
			pr.Outcome = OutcomeFailed
			pr.Err = fmt.Errorf("rehydrate: %w", rerr)
			_ = e.K.Exit(np, 1)
			return pr
		}
		pr.Outcome = OutcomeContinued
	case kernel.ActionRestart:
		_ = e.K.Exit(np, 0)
		fresh, rerr := e.K.CreateProcess(cand.Name, cand.Program)
		if rerr != nil {
			pr.Outcome = OutcomeFailed
			pr.Err = fmt.Errorf("restart: %w", rerr)
			return pr
		}
		pr.NewPID = fresh.PID
		pr.Outcome = OutcomeRestarted
	default:
		_ = e.K.Exit(np, 1)
		pr.Outcome = OutcomeGaveUp
	}
	return pr
}
