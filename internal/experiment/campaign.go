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
	// MeanInterruption is the mean outage over the unprotected pass's
	// successful recoveries (zero if none succeeded).
	MeanInterruption time.Duration
	// P50/P95/P99 Interruption are nearest-rank percentiles of the outage
	// over the same successful recoveries — the distribution behind
	// MeanInterruption (zero when none succeeded).
	P50Interruption, P95Interruption, P99Interruption time.Duration
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
	// experiments run concurrently (0 = NumCPU).
	// Every tallied result, metrics increment and progress tick is
	// bit-identical at any width: the pool speculates ahead but commits
	// strictly in seed order.
	CampaignWorkers int
	// ResurrectWorkers is forwarded to every experiment's
	// Config.ResurrectWorkers, where it has no effect: each experiment
	// resurrects one application.
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
	}
}

// tally is one campaign pass's raw counts.
type tally struct {
	n, discarded                      int
	success, boot, resurrect, corrupt int
	structCorrupt                     int
	dataChecked, dataViolations       int
	attribs                           map[Attribution]int
	// interruption sums the outages over successful recoveries, for the
	// Table 5 mean-interruption column.
	interruption time.Duration
	// interruptions keeps the per-recovery samples behind that sum, in
	// commit order, for the percentile columns; firstTouch accumulates
	// every demand-fault stall (lazy campaigns only).
	interruptions []time.Duration
	firstTouch    []time.Duration
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
		w = runtime.NumCPU()
	}
	return w
}

// runCampaignPass collects `want` faulted experiments for one app and
// returns the pass tally.
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
func runCampaignPass(cfg CampaignConfig, app string, protection bool, want int, seedSalt int64) tally {
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
		slots   = make([]slot, attempts)
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		next    int // next seed index to hand to a worker
		commit  int // next seed index to tally
		stopped bool
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
				res := runOne(ecfg)

				mu.Lock()
				slots[i] = slot{res: res, done: true}
				for !stopped && commit < attempts && slots[commit].done {
					r := slots[commit].res
					slots[commit] = slot{} // release the run's trace/report memory
					commit++
					commitResult(cfg, app, protection, passName, &t, want, r)
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
	return t
}

// commitResult folds one committed experiment into the pass tally. The pass
// mutex is held: metrics increments and progress ticks happen in commit
// order, so the registry and the live ticker replay identically at any
// pool width.
func commitResult(cfg CampaignConfig, app string, protection bool, passName string, t *tally, want int, res Result) {
	if res.Outcome == OutcomeNoKernelFault {
		t.discarded++
		cfg.Metrics.Counter("campaign_discarded_total",
			"injections that never caused a kernel failure",
			metrics.Labels{"app": app, "pass": passName}).Inc()
		notifyProgress(cfg, app, protection, t, want)
		return
	}
	t.n++
	cfg.Metrics.Counter("campaign_runs_total", "faulted experiments by outcome",
		metrics.Labels{"app": app, "pass": passName, "outcome": res.Outcome.String()}).Inc()
	switch res.Outcome {
	case OutcomeSuccess:
		t.success++
		t.interruption += res.Interruption
		t.interruptions = append(t.interruptions, res.Interruption)
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
	notifyProgress(cfg, app, protection, t, want)
}

// notifyProgress fires the live-progress callback; the tally mutex is held.
func notifyProgress(cfg CampaignConfig, app string, protection bool, t *tally, want int) {
	if cfg.Progress == nil {
		return
	}
	cfg.Progress(ProgressUpdate{
		App:       app,
		Protected: protection,
		Faulted:   t.n,
		Want:      want,
		Discarded: t.discarded,
		Attempted: t.n + t.discarded,
	})
}

// CampaignStats is what RunTable5Campaign reports beside the rows.
type CampaignStats struct {
	// Experiments counts committed attempts (faulted + discarded).
	Experiments int
}

// RunTable5 runs the full Table 5 campaign: an unprotected pass providing
// the success/boot-failure/resurrect-failure/corruption columns and a
// protected pass providing the protected-corruption sub-column.
func RunTable5(cfg CampaignConfig) []Table5Row {
	rows, _ := RunTable5Campaign(cfg)
	return rows
}

// RunTable5Campaign is RunTable5 that also counts the campaign's
// committed experiments.
func RunTable5Campaign(cfg CampaignConfig) ([]Table5Row, *CampaignStats) {
	if len(cfg.Apps) == 0 {
		cfg.Apps = AppNames
	}
	stats := &CampaignStats{}
	rows := make([]Table5Row, 0, len(cfg.Apps))
	const passCount = 2 // unprotected + protected
	for i, app := range cfg.Apps {
		base := runCampaignPass(cfg, app, false, cfg.PerApp, passSeedSalt(i, 0, passCount))
		stats.Experiments += base.n + base.discarded
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
			row.P50Interruption = pct(base.interruptions, 50)
			row.P95Interruption = pct(base.interruptions, 95)
			row.P99Interruption = pct(base.interruptions, 99)
		}
		row.FirstTouchSamples = len(base.firstTouch)
		if row.FirstTouchSamples > 0 {
			row.P50FirstTouch = pct(base.firstTouch, 50)
			row.P95FirstTouch = pct(base.firstTouch, 95)
			row.P99FirstTouch = pct(base.firstTouch, 99)
		}
		if !cfg.SkipProtected {
			prot := runCampaignPass(cfg, app, true, cfg.PerApp, passSeedSalt(i, 1, passCount))
			stats.Experiments += prot.n + prot.discarded
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
	return rows, stats
}

// RenderTable5 formats campaign rows like the paper's Table 5, extended
// with a mean-interruption column and the interruption percentiles over
// successful recoveries. A rate over zero runs (a row whose attempt budget
// found no faulted run, or a skipped protected pass) reads n/a. A "data
// survived" column appears only when some row actually audited on-disk
// state, so campaigns over the classic five applications render exactly as
// before.
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
		"", "p50/p95/p99 serial")
	if withData {
		fmt.Fprintf(&b, " %15s", "(disk audit)")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %13s %17s %21s %15s / %s",
			r.App, Percent(r.Success, r.N, 2), Percent(r.BootFailure, r.N, 2),
			Percent(r.ResurrectFail, r.N, 2), Percent(r.CorruptProt, r.ProtN, 2),
			Percent(r.CorruptNoProt, r.N, 2))
		if r.Success > 0 {
			fmt.Fprintf(&b, " %20.0fs %11.0f/%.0f/%.0fs", r.MeanInterruption.Seconds(),
				r.P50Interruption.Seconds(), r.P95Interruption.Seconds(), r.P99Interruption.Seconds())
		} else {
			// No successful recoveries: a mean or percentile over zero
			// samples is unknown, not 0s.
			fmt.Fprintf(&b, " %20s %15s", "n/a", "n/a")
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

// Percent formats frac, a fraction of n runs, as a percentage with prec
// decimals, or n/a when n is zero: a rate over no runs is unknown, not 0%
// (or NaN%).
func Percent(frac float64, n, prec int) string {
	if n == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.*f%%", prec, 100*frac)
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
