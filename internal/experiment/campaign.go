package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"otherworld/internal/kernel"
	"otherworld/internal/metrics"
	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
	"otherworld/internal/spans"
)

// Table5Row aggregates a campaign for one application into the paper's
// Table 5 columns.
type Table5Row struct {
	App string
	// N is the number of experiments that manifested a kernel fault (the
	// paper observes 400 per application).
	N int
	// Discarded counts injections that never caused a kernel failure.
	Discarded int
	// Success, BootFailure, ResurrectFailure and CorruptNoProt are
	// fractions of N from the unprotected campaign.
	Success       float64
	BootFailure   float64
	ResurrectFail float64
	CorruptNoProt float64
	// CorruptProt is the corruption fraction from the protected campaign
	// (Table 5's "with user space protected" sub-column).
	CorruptProt float64
	// ProtN is the protected campaign's faulted-experiment count.
	ProtN int
	// StructCorrupt counts resurrection failures caused by detected
	// main-kernel record corruption (the "3 of 2000" statistic).
	StructCorrupt int
	// Shortfall is how many faulted experiments short of the requested
	// count the unprotected pass came (0 when the attempt budget
	// sufficed); the fractions above are then over fewer runs than asked.
	Shortfall int
	// ProtShortfall is the protected pass's shortfall.
	ProtShortfall int
	// MeanInterruption is the mean serial-model outage over the
	// unprotected pass's successful recoveries (zero if none succeeded).
	MeanInterruption time.Duration
	// MeanParallelInterruption is the same mean under the parallel
	// schedule model at resurrect.CanonicalWorkers.
	MeanParallelInterruption time.Duration
	// P50/P95/P99 Interruption are nearest-rank percentiles of the
	// serial-model outage over the same successful recoveries — the
	// distribution behind MeanInterruption (zero when none succeeded).
	P50Interruption, P95Interruption, P99Interruption time.Duration
	// The same percentiles under the parallel schedule model at
	// resurrect.CanonicalWorkers.
	P50ParallelInterruption, P95ParallelInterruption, P99ParallelInterruption time.Duration
	// FirstTouchSamples counts demand-fault stalls observed across the
	// unprotected pass's successful recoveries (lazy campaigns only); the
	// percentiles below summarize them.
	FirstTouchSamples                           int
	P50FirstTouch, P95FirstTouch, P99FirstTouch time.Duration
	// Attributions tallies every non-success failure mode, aggregated by
	// structured attribution (stage, resurrection phase, panic kind,
	// normalized reason) and sorted most-frequent first.
	Attributions []AttributionCount
	// DataChecked counts unprotected-pass runs whose driver audited the
	// application's on-disk state after the crash; DataViolations of them
	// broke a recovery invariant — the "data survived" column for apps with
	// a platter audit (zero for apps without one).
	DataChecked    int
	DataViolations int
}

// CampaignConfig parameterizes a Table 5 campaign.
type CampaignConfig struct {
	// Apps lists the applications to test (AppNames by default).
	Apps []string
	// PerApp is the number of faulted experiments per application (the
	// paper: 400).
	PerApp int
	// Seed bases the replayable experiment seeds.
	Seed int64
	// Hardening selects the Section 6 fixes; the ablation flips this.
	Hardening kernel.Hardening
	// VerifyCRC enables record checksums (the Section 4 ablation flips
	// this).
	VerifyCRC bool
	// CampaignWorkers bounds campaign-level parallelism: how many whole
	// experiments run concurrently (0 falls back to Workers, then NumCPU).
	// Every tallied result, metrics increment and progress tick is
	// bit-identical at any width: the pool speculates ahead but commits
	// strictly in seed order.
	CampaignWorkers int
	// Workers is the older name for the same knob, kept for callers that
	// predate CampaignWorkers; it applies only when CampaignWorkers is 0.
	Workers int
	// ResurrectWorkers is the per-experiment resurrection pipeline width
	// (0 = NumCPU). It only changes each experiment's modeled parallel
	// interruption; every tallied outcome is identical at any width.
	ResurrectWorkers int
	// LazyInstall runs every experiment with the demand-paged resurrection
	// install (resume at context install, validated copy-on-access pages).
	LazyInstall bool
	// Stream runs every experiment through the streaming resurrection pass
	// (tier admission + pipelined install commit).
	Stream bool
	// IndexSlots sizes every experiment kernel's candidate index (0 = off).
	IndexSlots int
	// DiskCrash runs every experiment with the block-layer crash model.
	DiskCrash bool
	// Baseline replaces resurrection with a cold reboot plus application
	// restart in every experiment (the no-Otherworld control).
	Baseline bool
	// SkipProtected skips the protected-mode corruption sub-campaign.
	SkipProtected bool
	// MemoryMB sizes experiment machines.
	MemoryMB int
	// Progress, when set, is called after every finished experiment (from
	// the collecting goroutine's lock, so it must be quick) — the live
	// campaign ticker in cmd/owcampaign.
	Progress func(ProgressUpdate)
	// Metrics, when set, receives per-app/per-pass outcome and fault-kind
	// counters. Increments happen under the tally lock exactly where the
	// tallies themselves do, so the registry mirrors the rows at any
	// Workers/ResurrectWorkers setting.
	Metrics *metrics.Registry

	// runExperiment substitutes the single-experiment runner in tests;
	// nil means Run.
	runExperiment func(Config) Result
}

// ProgressUpdate is one live campaign progress tick.
type ProgressUpdate struct {
	App string
	// Protected says which pass is running.
	Protected bool
	// Faulted / Want is the pass's progress; Discarded counts no-fault
	// runs thrown away so far; Attempted counts all finished runs.
	Faulted, Want, Discarded, Attempted int
}

// DefaultCampaign returns the paper's campaign shape scaled by perApp.
func DefaultCampaign(perApp int, seed int64) CampaignConfig {
	return CampaignConfig{
		Apps:      AppNames,
		PerApp:    perApp,
		Seed:      seed,
		Hardening: kernel.FullHardening(),
		VerifyCRC: true,
		MemoryMB:  256,
	}
}

// tally is one campaign pass's raw counts.
type tally struct {
	n, discarded                      int
	success, boot, resurrect, corrupt int
	structCorrupt                     int
	dataChecked, dataViolations       int
	attribs                           map[Attribution]int
	// interruption sums the serial/parallel-model outages over successful
	// recoveries, for the Table 5 mean-interruption columns.
	interruption, parInterruption time.Duration
	// interruptions / parInterruptions keep the per-recovery samples behind
	// those sums, in commit order, for the percentile columns; firstTouch
	// accumulates every demand-fault stall (lazy campaigns only).
	interruptions, parInterruptions []time.Duration
	firstTouch                      []time.Duration
}

// sortedAttributions flattens the tally's attribution map into a
// deterministic slice: most frequent first, ties broken lexicographically.
func (t *tally) sortedAttributions() []AttributionCount {
	out := make([]AttributionCount, 0, len(t.attribs))
	for a, n := range t.attribs {
		out = append(out, AttributionCount{Attribution: a, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Attribution.String() < out[j].Attribution.String()
	})
	return out
}

// passSeedSalt gives each (application, pass) combination its own seed
// space. The salt occupies the high bits: a pass scans at most
// 3*PerApp seeds spaced 7919 apart, so passes stay provably disjoint as
// long as that span is below 2^44 (PerApp under ~700 billion — any
// realistic campaign). The old additive salts (i*1_000_000, +500_000) were
// smaller than a pass's span and made passes overlap, silently correlating
// the protected and unprotected campaigns.
func passSeedSalt(appIdx, pass, passCount int) int64 {
	return (int64(appIdx)*int64(passCount) + int64(pass) + 1) << 44
}

// campaignWorkers resolves the effective campaign pool width.
func (cfg CampaignConfig) campaignWorkers() int {
	w := cfg.CampaignWorkers
	if w <= 0 {
		w = cfg.Workers
	}
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return w
}

// runCampaignPass collects `want` faulted experiments for one app. It
// returns the pass tally plus the modeled duration of every committed
// attempt, in commit order, for the pool schedule model.
//
// Determinism at any width: workers execute seeds speculatively, but a
// finished experiment parks in its seed-indexed slot until every earlier
// seed has been tallied. A commit cursor under the pass mutex then folds
// slots in strict seed order and stops the moment the faulted-run quota is
// met — exactly where a serial loop would have stopped. The committed
// prefix (and with it every tally, metrics increment and progress tick) is
// therefore a pure function of the seed; speculative runs past the stop
// point are dropped unobserved. A bounded window keeps workers from racing
// arbitrarily far ahead of the commit cursor.
func runCampaignPass(cfg CampaignConfig, app string, protection bool, want int, seedSalt int64) (tally, []time.Duration) {
	workers := cfg.campaignWorkers()
	if workers > want {
		workers = want
	}
	if workers < 1 {
		workers = 1
	}

	t := tally{attribs: make(map[Attribution]int)}
	passName := "unprotected"
	if protection {
		passName = "protected"
	}
	runOne := cfg.runExperiment
	if runOne == nil {
		runOne = Run
	}
	// Generous attempt budget: ~20% of runs are expected to be no-fault.
	attempts := want * 3
	window := workers * 2
	if window < 8 {
		window = 8
	}

	type slot struct {
		res  Result
		done bool
	}
	var (
		slots     = make([]slot, attempts)
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		next      int // next seed index to hand to a worker
		commit    int // next seed index to tally
		attempted int // committed attempts (faulted + discarded)
		stopped   bool
		durs      []time.Duration
	)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !stopped && next < attempts && next >= commit+window {
					cond.Wait()
				}
				if stopped || next >= attempts {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				ecfg := DefaultConfig(app, cfg.Seed+seedSalt+int64(i)*7919)
				ecfg.Protection = protection
				ecfg.Hardening = cfg.Hardening
				ecfg.VerifyCRC = cfg.VerifyCRC
				ecfg.ResurrectWorkers = cfg.ResurrectWorkers
				ecfg.LazyInstall = cfg.LazyInstall
				ecfg.Stream = cfg.Stream
				ecfg.IndexSlots = cfg.IndexSlots
				ecfg.DiskCrash = cfg.DiskCrash
				ecfg.Baseline = cfg.Baseline
				if cfg.MemoryMB > 0 {
					ecfg.MemoryMB = cfg.MemoryMB
				}
				res := runOne(ecfg)

				mu.Lock()
				slots[i] = slot{res: res, done: true}
				for !stopped && commit < attempts && slots[commit].done {
					r := slots[commit].res
					slots[commit] = slot{} // release the run's trace/report memory
					commit++
					attempted++
					durs = append(durs, r.Duration)
					commitResult(cfg, app, protection, passName, &t, want, attempted, r)
					if t.n >= want {
						stopped = true
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return t, durs
}

// commitResult folds one committed experiment into the pass tally. The pass
// mutex is held: metrics increments and progress ticks happen in commit
// order, so the registry and the live ticker replay identically at any
// pool width.
func commitResult(cfg CampaignConfig, app string, protection bool, passName string, t *tally, want, attempted int, res Result) {
	if res.Outcome == OutcomeNoKernelFault {
		t.discarded++
		cfg.Metrics.Counter("campaign_discarded_total",
			"injections that never caused a kernel failure",
			metrics.Labels{"app": app, "pass": passName}).Inc()
		notifyProgress(cfg, app, protection, t, want, attempted)
		return
	}
	t.n++
	cfg.Metrics.Counter("campaign_runs_total", "faulted experiments by outcome",
		metrics.Labels{"app": app, "pass": passName, "outcome": res.Outcome.String()}).Inc()
	switch res.Outcome {
	case OutcomeSuccess:
		t.success++
		t.interruption += res.Interruption
		t.parInterruption += res.ParallelInterruption
		t.interruptions = append(t.interruptions, res.Interruption)
		t.parInterruptions = append(t.parInterruptions, res.ParallelInterruption)
		t.firstTouch = append(t.firstTouch, res.FirstTouch...)
	case OutcomeBootFailure:
		t.boot++
	case OutcomeResurrectFailure:
		t.resurrect++
		if res.StructCorruption {
			t.structCorrupt++
		}
	case OutcomeDataCorruption:
		t.corrupt++
	}
	if res.DataChecked {
		t.dataChecked++
		verdict := "intact"
		if res.DataErr != nil {
			t.dataViolations++
			verdict = "violated"
		}
		cfg.Metrics.Counter("campaign_data_checks_total",
			"post-crash on-disk recovery-invariant audits by verdict",
			metrics.Labels{"app": app, "pass": passName, "verdict": verdict}).Inc()
	}
	if res.Outcome != OutcomeSuccess && res.Detail != nil {
		t.attribs[res.Detail.Attribution]++
		if pk := res.Detail.PanicKind; pk != "" {
			cfg.Metrics.Counter("campaign_fault_kinds_total",
				"non-success runs by dead-kernel panic kind",
				metrics.Labels{"app": app, "panic": pk}).Inc()
		}
	}
	notifyProgress(cfg, app, protection, t, want, attempted)
}

// notifyProgress fires the live-progress callback; the tally mutex is held.
func notifyProgress(cfg CampaignConfig, app string, protection bool, t *tally, want, attempted int) {
	if cfg.Progress == nil {
		return
	}
	cfg.Progress(ProgressUpdate{
		App:       app,
		Protected: protection,
		Faulted:   t.n,
		Want:      want,
		Discarded: t.discarded,
		Attempted: attempted,
	})
}

// CanonicalCampaignWorkers is the pool width the campaign's published
// schedule figures are quoted at, so campaign output never depends on the
// host the campaign happened to run on (the same convention as
// resurrect.CanonicalWorkers).
const CanonicalCampaignWorkers = 4

// CampaignStats summarizes the campaign pool's modeled schedule: every
// committed experiment's virtual duration fed through poolSchedule.
// All published fields are quoted at CanonicalCampaignWorkers (plus the
// serial baseline), so they are identical at any live pool width.
type CampaignStats struct {
	// Workers is the live pool width the campaign executed at. It affects
	// host wall clock only — never any modeled figure.
	Workers int
	// Experiments counts committed attempts (faulted + discarded).
	Experiments int
	// TotalWork is the summed modeled duration of all committed attempts.
	TotalWork time.Duration
	// SerialMakespan is the modeled campaign wall clock on one worker.
	SerialMakespan time.Duration
	// Makespan is the modeled wall clock at CanonicalCampaignWorkers.
	Makespan time.Duration
	// Occupancy is TotalWork / (CanonicalCampaignWorkers × Makespan).
	Occupancy float64

	spans []time.Duration
}

// ScheduleAt models the campaign wall clock at a hypothetical pool width.
func (s *CampaignStats) ScheduleAt(workers int) time.Duration {
	makespan, _ := poolSchedule(s.spans, workers)
	return makespan
}

// poolSchedule models the campaign worker pool, never wider than the span
// set: spans in commit order, each to the earliest-free worker
// (sched.Pipeline with no commit cursor). It returns the makespan and the
// occupancy; a pure function of its arguments, so campaign timing quotes
// replay from the seed on any host.
func poolSchedule(spans []time.Duration, workers int) (time.Duration, float64) {
	if len(spans) > 0 && workers > len(spans) {
		workers = len(spans)
	}
	_, makespan, busy := sched.Pipeline(spans, nil, workers)
	return makespan, sched.Occupancy(busy, makespan)
}

// SpeedupAt is the modeled serial-over-parallel ratio at a width.
func (s *CampaignStats) SpeedupAt(workers int) float64 {
	par := s.ScheduleAt(workers)
	if par <= 0 {
		return 0
	}
	return float64(s.SerialMakespan) / float64(par)
}

// RunTable5 runs the full Table 5 campaign: an unprotected pass providing
// the success/boot-failure/resurrect-failure/corruption columns and a
// protected pass providing the protected-corruption sub-column.
func RunTable5(cfg CampaignConfig) []Table5Row {
	rows, _ := RunTable5Campaign(cfg)
	return rows
}

// RunTable5Campaign is RunTable5 plus the pool schedule model: it also
// returns the campaign's modeled timing statistics and publishes the pool
// occupancy and makespan gauges to cfg.Metrics.
func RunTable5Campaign(cfg CampaignConfig) ([]Table5Row, *CampaignStats) {
	if len(cfg.Apps) == 0 {
		cfg.Apps = AppNames
	}
	stats := &CampaignStats{Workers: cfg.campaignWorkers()}
	rows := make([]Table5Row, 0, len(cfg.Apps))
	const passCount = 2 // unprotected + protected
	for i, app := range cfg.Apps {
		base, durs := runCampaignPass(cfg, app, false, cfg.PerApp, passSeedSalt(i, 0, passCount))
		stats.spans = append(stats.spans, durs...)
		row := Table5Row{
			App:            app,
			N:              base.n,
			Discarded:      base.discarded,
			StructCorrupt:  base.structCorrupt,
			Attributions:   base.sortedAttributions(),
			DataChecked:    base.dataChecked,
			DataViolations: base.dataViolations,
		}
		if base.n < cfg.PerApp {
			row.Shortfall = cfg.PerApp - base.n
		}
		if base.n > 0 {
			row.Success = float64(base.success) / float64(base.n)
			row.BootFailure = float64(base.boot) / float64(base.n)
			row.ResurrectFail = float64(base.resurrect) / float64(base.n)
			row.CorruptNoProt = float64(base.corrupt) / float64(base.n)
		}
		// pct is safe here: every call sits behind a non-empty guard, so
		// the ok return can only be true.
		pct := func(s []time.Duration, p int) time.Duration {
			d, _ := spans.Percentile(s, p)
			return d
		}
		if base.success > 0 {
			row.MeanInterruption = base.interruption / time.Duration(base.success)
			row.MeanParallelInterruption = base.parInterruption / time.Duration(base.success)
			row.P50Interruption = pct(base.interruptions, 50)
			row.P95Interruption = pct(base.interruptions, 95)
			row.P99Interruption = pct(base.interruptions, 99)
			row.P50ParallelInterruption = pct(base.parInterruptions, 50)
			row.P95ParallelInterruption = pct(base.parInterruptions, 95)
			row.P99ParallelInterruption = pct(base.parInterruptions, 99)
		}
		row.FirstTouchSamples = len(base.firstTouch)
		if row.FirstTouchSamples > 0 {
			row.P50FirstTouch = pct(base.firstTouch, 50)
			row.P95FirstTouch = pct(base.firstTouch, 95)
			row.P99FirstTouch = pct(base.firstTouch, 99)
		}
		if !cfg.SkipProtected {
			prot, pdurs := runCampaignPass(cfg, app, true, cfg.PerApp, passSeedSalt(i, 1, passCount))
			stats.spans = append(stats.spans, pdurs...)
			row.ProtN = prot.n
			if prot.n < cfg.PerApp {
				row.ProtShortfall = cfg.PerApp - prot.n
			}
			if prot.n > 0 {
				row.CorruptProt = float64(prot.corrupt) / float64(prot.n)
			}
		}
		rows = append(rows, row)
	}
	stats.Experiments = len(stats.spans)
	for _, s := range stats.spans {
		stats.TotalWork += s
	}
	stats.SerialMakespan = stats.ScheduleAt(1)
	stats.Makespan, stats.Occupancy = poolSchedule(stats.spans, CanonicalCampaignWorkers)
	canon := metrics.Labels{"workers": fmt.Sprint(CanonicalCampaignWorkers)}
	cfg.Metrics.Gauge("campaign_pool_occupancy",
		"fraction of pool worker-time the modeled schedule keeps busy, at the canonical width", canon).
		Set(stats.Occupancy)
	cfg.Metrics.Gauge("campaign_pool_makespan_seconds",
		"modeled campaign wall clock under the pool schedule, at the canonical width", canon).
		Set(stats.Makespan.Seconds())
	return rows, stats
}

// RenderTable5 formats campaign rows like the paper's Table 5, extended
// with mean-interruption columns (serial schedule and the parallel schedule
// at the canonical worker count) and the serial-model interruption
// percentiles over successful recoveries. A "data survived" column appears
// only when some row actually audited on-disk state, so campaigns over the
// classic five applications render exactly as before.
func RenderTable5(rows []Table5Row) string {
	withData := false
	for _, r := range rows {
		if r.DataChecked > 0 {
			withData = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %13s %17s %21s %31s %23s %20s",
		"Application", "Successful", "Failure to boot", "Failure to resurrect",
		"Data corruption with/without", "Mean interruption", "Interruption")
	if withData {
		fmt.Fprintf(&b, " %15s", "Data survived")
	}
	fmt.Fprintf(&b, "\n%-11s %13s %17s %21s %31s %23s %20s",
		"", "resurrection", "the crash kernel", "application", "user space protected",
		fmt.Sprintf("serial / %dw", resurrect.CanonicalWorkers), "p50/p95/p99 serial")
	if withData {
		fmt.Fprintf(&b, " %15s", "(disk audit)")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %12.2f%% %16.2f%% %20.2f%% %14.2f%% / %.2f%% %14.0fs / %.0fs",
			r.App, 100*r.Success, 100*r.BootFailure, 100*r.ResurrectFail,
			100*r.CorruptProt, 100*r.CorruptNoProt,
			r.MeanInterruption.Seconds(), r.MeanParallelInterruption.Seconds())
		if r.Success > 0 {
			fmt.Fprintf(&b, " %11.0f/%.0f/%.0fs",
				r.P50Interruption.Seconds(), r.P95Interruption.Seconds(), r.P99Interruption.Seconds())
		} else {
			// No successful recoveries: a percentile over zero samples is
			// not 0s, so don't fake a "0/0/0s" cell.
			fmt.Fprintf(&b, " %15s", "n/a")
		}
		if withData {
			if r.DataChecked > 0 {
				fmt.Fprintf(&b, " %9d/%-5d", r.DataChecked-r.DataViolations, r.DataChecked)
			} else {
				fmt.Fprintf(&b, " %15s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Totals summarizes a campaign: total faulted runs, discarded runs and the
// kernel-structure-corruption count the paper reports in prose.
func Totals(rows []Table5Row) (faulted, discarded, structCorrupt int) {
	for _, r := range rows {
		faulted += r.N
		discarded += r.Discarded
		structCorrupt += r.StructCorrupt
	}
	return faulted, discarded, structCorrupt
}

// DataTotals sums the campaign's post-crash disk audits: how many runs
// checked the application's on-disk recovery invariants and how many of
// those found them violated.
func DataTotals(rows []Table5Row) (checked, violations int) {
	for _, r := range rows {
		checked += r.DataChecked
		violations += r.DataViolations
	}
	return checked, violations
}

// TopReasons returns the campaign's failure attributions sorted by
// frequency: numerically by count (descending), ties broken by the
// attribution text. (Sorting the *formatted* strings, as this used to do,
// ordered "  999x" above "10000x" and left ties in arbitrary map order.)
func TopReasons(rows []Table5Row) []string {
	counts := make(map[Attribution]int)
	for _, r := range rows {
		for _, ac := range r.Attributions {
			counts[ac.Attribution] += ac.Count
		}
	}
	type entry struct {
		a Attribution
		n int
	}
	entries := make([]entry, 0, len(counts))
	for a, n := range counts {
		entries = append(entries, entry{a, n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		return entries[i].a.String() < entries[j].a.String()
	})
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, fmt.Sprintf("%4dx %s", e.n, e.a))
	}
	return out
}

// Shortfalls reports every row that collected fewer faulted experiments
// than requested, for the harness to warn about: an undershoot used to be
// silently absorbed into smaller-N fractions.
func Shortfalls(rows []Table5Row) []string {
	var out []string
	for _, r := range rows {
		if r.Shortfall > 0 {
			out = append(out, fmt.Sprintf("%s: %d of %d faulted experiments (unprotected pass %d short; attempt budget exhausted)",
				r.App, r.N, r.N+r.Shortfall, r.Shortfall))
		}
		if r.ProtShortfall > 0 {
			out = append(out, fmt.Sprintf("%s: %d of %d faulted experiments (protected pass %d short; attempt budget exhausted)",
				r.App, r.ProtN, r.ProtN+r.ProtShortfall, r.ProtShortfall))
		}
	}
	return out
}
