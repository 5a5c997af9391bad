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

// copyFrame copies frame f into buf without counting it. It serves a commit
// that installs a frame the scan already read, and counted, through
// ReadAt: Table 4 counts one read per page.
func (r *reader) copyFrame(f int, buf []byte) error {
	return r.mem.CopyFrame(f, 0, buf)
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
	// Workers is how many host goroutines scan candidates (0 = NumCPU).
	// It changes host wall time only: the Report, the Accounting, the new
	// kernel's state and the machine clock are the same at any width (see
	// Report.Fingerprint and CanonicalWorkers).
	Workers int
	// Stream enables streaming resurrection: candidates are admitted in
	// SLO-tier order, then PID order, and modeled with the install commit
	// pipelined per candidate behind that order's cursor, so the first
	// tier-0 process resumes as soon as its own scan and commit are done
	// instead of waiting for the whole batch's scan barrier. Off (the
	// default) commits in discovery order and models the classic
	// scan-then-install batch: round-robin shards, a scan barrier, then
	// serial installs. Either way the host scans every candidate before the
	// first commit.
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
	// plus the sum of every candidate's scan+install time. Like every
	// field of the report it does not depend on Config.Workers.
	Duration time.Duration
	// Prologue is the serial lead-in before candidates fan out: candidate
	// listing and swap-table resolution.
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
	// Streamed records that this pass committed in admission order and is
	// modeled with pipelined commits (sched.Pipeline); Tiers is then each
	// candidate's admission tier, aligned with Procs. Both are
	// fingerprinted only for streamed passes, so classic-path goldens are
	// untouched.
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
	// FirstTouch collects each demand-fault stall a resumed process paid on
	// first touch of a speculated page (lazy install only), in touch order.
	// Touches happen on the serial post-resume execution path, so the slice
	// is worker-count-independent; it keeps filling after Run returns, as
	// the workload faults pages in. Excluded from Fingerprint — the span
	// plane and Table 6 percentiles pin it through their own goldens.
	FirstTouch []time.Duration
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
	// buf is the record buffer the serial prologue's reads decode through
	// (ListCandidates, MainSwapDevice); each scanner has its own.
	buf []byte
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
	// frameBuf holds the dead frames the commits copy (deadFrame): slot 0
	// the page, shared-memory frame or screen being installed or compared,
	// slot 1 the dedup cache's canonical page. It is allocated by the first
	// copy of a pass.
	frameBuf *[2][phys.PageSize]byte
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
// can be resurrected. A corrupt descriptor, or one the list already
// visited (a CRC-valid stale Next is enough), ends the walk there: the
// rest of the list is unreachable, and each process before it is reported
// once.
func (e *Engine) ListCandidates() ([]Candidate, error) {
	var g layout.Globals
	if err := g.Read(e.rd.at(CatGlobals), e.MainGlobals, e.VerifyCRC, &e.buf); err != nil {
		return nil, fmt.Errorf("resurrect: main kernel globals: %w", err)
	}
	e.parseTime()
	var out []Candidate
	var p layout.Proc
	var list layout.Chain
	_, err := list.Walk(g.ProcListHead, layout.TypeProc, func(cur uint64) (uint64, error) {
		if err := p.Read(e.rd.at(CatProc), cur, e.VerifyCRC, &e.buf); err != nil {
			return 0, err
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
		return p.Next, nil
	})
	if err != nil {
		return out, fmt.Errorf("resurrect: process list: %w", err)
	}
	return out, nil
}

// MainSwapDevice resolves the dead kernel's swap partition by reading its
// swap-area table and reopening the device by symbolic name (Section 3.3).
func (e *Engine) MainSwapDevice() (devName string, err error) {
	var g layout.Globals
	if err := g.Read(e.rd.at(CatGlobals), e.MainGlobals, e.VerifyCRC, &e.buf); err != nil {
		return "", err
	}
	if g.SwapTable == 0 {
		return "", nil
	}
	var t layout.SwapTable
	if err := t.Read(e.rd.at(CatGlobals), g.SwapTable, e.VerifyCRC, &e.buf); err != nil {
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
// After a serial prologue (discovery, swap resolution), the selected
// candidates are scanned over cfg.Workers goroutines and then committed
// one at a time (stream.go): in discovery order for a batch pass
// and in SLO-tier admission order for a streamed one. The machine clock
// then advances by the pass's modeled schedule at CanonicalWorkers
// (Report.ScheduleAt's model, over the full installs) while
// Report.Duration keeps the serial sum, so the clock and every recorded
// number are identical at any worker count.
func (e *Engine) Run(cfg Config) *Report {
	start := e.K.M.Clock.Now()
	rep := &Report{Acct: Accounting{ByCategory: e.acct.ByCategory}}
	cands, err := e.discoverCandidates(rep)
	rep.Candidates = cands
	if err != nil && len(cands) == 0 {
		// Anchor corrupt: every selected process fails.
		rep.Duration = e.K.M.Clock.Since(start)
		rep.Prologue = rep.Duration
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
	rep.Prologue = e.K.M.Clock.Since(start)
	e.runPass(rep, order, cfg.effectiveWorkers(len(order)), mainSwap)
	// The machine advances by the modeled schedule over the *full* installs
	// — lazy or not, the install work all happened — while Duration sums
	// only the blocked spans, the per-process interruption the paper's
	// tables measure. The serial morph epilogue is charged by core after
	// Run returns.
	_, makespan := rep.scheduleAt(CanonicalWorkers, rep.PerInstall)
	e.K.M.Clock.Advance(makespan)
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

// Fingerprint renders the report as a deterministic string: the
// determinism tests assert it is byte-identical at Workers=1 and
// Workers=N. The fields whose comments say so are excluded.
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
	return b.String()
}

// applyPolicy runs the crash procedure (if registered) and decides the
// final outcome per Table 1.
func (e *Engine) applyPolicy(np *kernel.Process, cand Candidate, pr ProcReport) ProcReport {
	proc := kernel.LookupCrashProc(cand.CrashProc)
	if cand.CrashProc == "" || proc == nil {
		if pr.Missing != 0 {
			pr.Outcome = OutcomeFailed
			pr.Err = fmt.Errorf("resources not resurrected (%s) and no crash procedure", pr.Missing)
			_ = e.K.Exit(np, 1)
			return pr
		}
		pr.Outcome = OutcomeContinued
		return pr
	}

	pr.CrashProcCalled = true
	before := e.K.FS.BytesWritten()
	action, err := proc(&kernel.Env{K: e.K, P: np}, pr.Missing)
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
