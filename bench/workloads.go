package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"otherworld/internal/experiment"
)

// runConfig is one run's parameters. The sizes are fixed per workload in
// the command; tests shrink them.
type runConfig struct {
	seed int64
	// seconds is the run's measuring time: cycles continue past the fixed
	// set until it has passed.
	seconds float64
	trace   bool
	// fixed is how many leading cycles (campaign: mini-campaigns) form the
	// fixed set that the deterministic metrics are computed over.
	fixed int
	// population sizes the fleet; perApp sizes each campaign pass.
	population, perApp int
	// traceOut is where a traced run writes its trace-event file.
	traceOut string
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	// fixed, population and perApp are the command's sizes.
	fixed, population, perApp int
	// lazy marks the demand-paged install, for the span plane.
	lazy bool
	// campaign runs mini-campaigns on the campaign pool, each after
	// probesPerCampaign probe cycles.
	campaign bool
	// scenario makes the machine scenario of the cycle seeded seed.
	scenario func(cfg runConfig, seed int64) scenario
}

// campaignApps are the campaign workload's applications: the paper's
// editor, database and web server plus the write-ahead-log store whose
// on-disk state the campaign audits after every crash.
var campaignApps = []string{"vi", "MySQL", "Apache/PHP", "WAL"}

// probesPerCampaign is how many probe cycles precede each mini-campaign.
const probesPerCampaign = 6

// campaignStride separates the seeds of successive mini-campaigns by more
// than any one campaign pass spans (3·perApp seeds 7919 apart).
const campaignStride = 1_000_003

// resurrectWidth is the resurrection pool width of the recovery workloads:
// the machine has two cores.
const resurrectWidth = 2

var workloads = []workloadDef{
	{
		name:  "mysql8-eager",
		why:   "8 warmed MySQL servers crashed and recovered with the eager install: copy, CRC, zero elision and dedup sit inside HandleFailure",
		fixed: 20,
		scenario: func(_ runConfig, seed int64) scenario {
			return newMySQL8(seed, false)
		},
	},
	{
		name:  "mysql8-lazy",
		why:   "the same inputs with the demand-paged install: the copy work moves out of HandleFailure into first-touch validation while serving",
		fixed: 20,
		lazy:  true,
		scenario: func(_ runConfig, seed int64) scenario {
			return newMySQL8(seed, true)
		},
	},
	{
		name:       "fleet256-stream",
		why:        "a 256-process mixed fleet with the candidate index and streaming admission: the only workload where index discovery, admission and the pipeline scale",
		fixed:      4,
		population: 256,
		scenario: func(cfg runConfig, seed int64) scenario {
			return newFleet(cfg.population, seed, seededPayloads(seed, "f"))
		},
	},
	{
		name:     "campaign-wal",
		why:      "Table 5 fault-injection mini-campaigns over vi, MySQL, Apache/PHP and WAL with the disk crash model: failed resurrections, discarded runs, the campaign pool and disk writes",
		fixed:    2,
		perApp:   6,
		campaign: true,
		scenario: func(_ runConfig, seed int64) scenario {
			return &probeScenario{seed: seed}
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// campaignResult is one mini-campaign's Table 5 outcome.
type campaignResult struct {
	attempted, faulted, discarded  int
	success, boot, resurrectFailed int
	audits, violations             int
	// walViolations are the fixed WAL's audit violations; shortfall counts
	// faulted experiments the passes came short of.
	walViolations, shortfall int
	// table is the rendered Table 5, for comparing phases.
	table string
	err   error
}

// phase is one measuring pass over a workload.
type phase struct {
	cycles     []cycleResult
	fixed      int // leading cycles in the fixed set
	campaigns  []campaignResult
	fixedCamps int
	wall       time.Duration
	// attempted counts cycles and experiments; failed those that failed a
	// check.
	attempted, failed int
	alloc             uint64
	// fixedRSS is the process's peak resident set when the fixed set
	// ended (campaign: when the first probes ended): read there, it does
	// not grow with the run's length.
	fixedRSS float64
	gcCycles uint32
	gcPause  uint64
	errs     []string
}

// runPhase measures the workload for budget, and at least over its fixed
// set, then reruns the first cycle at resurrection width 1 and requires the
// same report fingerprint.
func runPhase(w workloadDef, cfg runConfig, tr *tracer, budget time.Duration) phase {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	o := cycleOpts{width: resurrectWidth, replay: tr.on, name: w.name, lazy: w.lazy}
	if !w.campaign {
		p.fixed = cfg.fixed
		for i := 0; i < cfg.fixed || time.Since(start) < budget; i++ {
			seed := cfg.seed + int64(i)
			o.fingerprint = i == 0 || (cfg.trace && i < cfg.fixed)
			p.cycles = append(p.cycles, measureCycle(tr, w.scenario(cfg, seed), seed, i, o))
			if i == cfg.fixed-1 {
				p.fixedRSS = maxRSSMiB()
			}
		}
	} else {
		for c := 0; c < cfg.fixed || time.Since(start) < budget; c++ {
			base := cfg.seed + int64(c)*campaignStride
			for a := 0; a < probesPerCampaign; a++ {
				seed := base + int64(a)
				o.fingerprint = len(p.cycles) == 0 || (cfg.trace && c < cfg.fixed)
				p.cycles = append(p.cycles, measureCycle(tr, w.scenario(cfg, seed), seed, len(p.cycles), o))
			}
			if c == 0 {
				// The pool's own peak depends on how its two workers'
				// machines happen to overlap: 1.42 or 1.65 GiB from run
				// to run. Read the peak before the pool first runs.
				p.fixedRSS = maxRSSMiB()
			}
			p.campaigns = append(p.campaigns, runCampaign(tr, base, cfg.perApp))
		}
		p.fixedCamps = cfg.fixed
		p.fixed = cfg.fixed * probesPerCampaign
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = m1.PauseTotalNs - m0.PauseTotalNs

	if first := &p.cycles[0]; first.err == nil {
		fp, err := fingerprintAt(w.scenario(cfg, first.seed), 1)
		if err == nil && fp != first.fingerprint {
			err = fmt.Errorf("report fingerprint differs between resurrection widths 1 and %d", resurrectWidth)
		}
		first.err = err
	}

	for i, c := range p.cycles {
		p.attempted++
		if c.err != nil {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("cycle %d (seed %d): %v", i, c.seed, c.err))
		}
	}
	for i, c := range p.campaigns {
		p.attempted += c.attempted
		p.failed += c.walViolations + c.shortfall
		if c.err != nil {
			p.errs = append(p.errs, fmt.Sprintf("campaign %d: %v", i, c.err))
			if c.walViolations+c.shortfall == 0 {
				p.failed++
			}
		}
	}
	return p
}

// measureCycle runs one cycle under a root span.
func measureCycle(tr *tracer, sc scenario, seed int64, i int, o cycleOpts) cycleResult {
	tr.cycle = i
	var r cycleResult
	tr.do("bench.cycle", func() { r = runCycle(tr, sc, seed, o) })
	return r
}

// runCampaign runs one Table 5 mini-campaign on the campaign pool: two
// campaign workers, one resurrection worker each.
func runCampaign(tr *tracer, seed int64, perApp int) campaignResult {
	cc := experiment.DefaultCampaign(perApp, seed)
	cc.Apps = campaignApps
	cc.DiskCrash = true
	cc.SkipProtected = true
	cc.CampaignWorkers = 2
	cc.ResurrectWorkers = 1
	var (
		rows  []experiment.Table5Row
		stats *experiment.CampaignStats
	)
	tr.do("experiment.campaign", func() { rows, stats = experiment.RunTable5Campaign(cc) })

	r := campaignResult{attempted: stats.Experiments, table: experiment.RenderTable5(rows)}
	r.faulted, r.discarded, _ = experiment.Totals(rows)
	r.audits, r.violations = experiment.DataTotals(rows)
	count := func(frac float64, n int) int { return int(math.Round(frac * float64(n))) }
	walChecked := 0
	for _, row := range rows {
		r.success += count(row.Success, row.N)
		r.boot += count(row.BootFailure, row.N)
		r.resurrectFailed += count(row.ResurrectFail, row.N)
		r.shortfall += row.Shortfall
		if row.App == "WAL" {
			r.walViolations = row.DataViolations
			walChecked = row.DataChecked
		}
	}
	switch sf := experiment.Shortfalls(rows); {
	case len(sf) > 0:
		r.err = fmt.Errorf("campaign shortfall: %v", sf)
	case r.walViolations > 0:
		r.err = fmt.Errorf("fixed WAL broke a recovery invariant in %d of %d audits", r.walViolations, walChecked)
	case walChecked == 0:
		r.err = fmt.Errorf("no WAL disk audit ran")
	}
	return r
}

// value is one metric's result: OK false means unknown (printed null), and
// N is how many samples it rests on.
type value struct {
	V  float64
	OK bool
	N  int
}

func known(v float64, n int) value { return value{V: v, OK: true, N: n} }

// good returns the cycles that passed every check; with fixedOnly, only
// those of the fixed set.
func (p *phase) good(fixedOnly bool) []cycleResult {
	cs := p.cycles
	if fixedOnly {
		cs = cs[:min(p.fixed, len(cs))]
	}
	var out []cycleResult
	for _, c := range cs {
		if c.err == nil {
			out = append(out, c)
		}
	}
	return out
}

// meanOf averages f over cycles. The modeled metrics use it: they carry
// no noise to be robust against, and on mysql8-lazy the per-cycle outage
// takes only two values, so a median would repeat across seeds.
func meanOf(cs []cycleResult, f func(cycleResult) float64) value {
	if len(cs) == 0 {
		return value{}
	}
	var sum float64
	for _, c := range cs {
		sum += f(c)
	}
	return known(sum/float64(len(cs)), len(cs))
}

func medianValue(xs []float64) value {
	v, ok := median(xs)
	return value{V: v, OK: ok, N: len(xs)}
}

// endToEndMetrics computes the end-to-end and report-only metrics of an
// untraced phase.
func endToEndMetrics(p *phase) map[string]value {
	all, fixed := p.good(false), p.good(true)
	setups, recovers, serves := make([]float64, len(all)), make([]float64, len(all)), make([]float64, len(all))
	for i, c := range all {
		setups[i], recovers[i], serves[i] = c.setup.Seconds(), ms(c.recover), ms(c.serve)
	}
	out := map[string]value{
		"setup_s":        medianValue(setups),
		"recover_ms_p50": medianValue(recovers),
		"serve_ms_p50":   medianValue(serves),
		"interruption_s": meanOf(fixed, func(c cycleResult) float64 { return c.interruption.Seconds() }),
		"first_resume_s": meanOf(fixed, func(c cycleResult) float64 { return c.firstResume.Seconds() }),
		"requests_lost":  meanOf(fixed, func(c cycleResult) float64 { return float64(c.lost) }),
		"crash_read_kb":  meanOf(fixed, func(c cycleResult) float64 { return float64(c.crashRead) / 1024 }),
	}
	p90, ok := percentile(recovers, 90)
	out["recover_ms_p90"] = value{V: p90, OK: ok, N: len(recovers)}

	if p.attempted > 0 && p.wall > 0 {
		out["cycles_per_s"] = known(float64(p.attempted)/p.wall.Seconds(), p.attempted)
		out["alloc_mb_per_cycle"] = known(float64(p.alloc)/(1<<20)/float64(p.attempted), p.attempted)
		out["failed_pct"] = known(100*float64(p.failed)/float64(p.attempted), p.attempted)
	}
	out["max_rss_mb"] = known(p.fixedRSS, p.fixed)

	if p.campaigns == nil {
		var succ, cand int
		for _, c := range fixed {
			succ += c.succeeded
			cand += c.candidates
		}
		if cand > 0 {
			out["success_pct"] = known(100*float64(succ)/float64(cand), cand)
		}
		out["data_violations"] = value{}
		return out
	}
	var succ, faulted, viol, audits int
	for _, c := range p.campaigns[:min(p.fixedCamps, len(p.campaigns))] {
		succ += c.success
		faulted += c.faulted
		viol += c.walViolations
		audits += c.audits
	}
	if faulted > 0 {
		out["success_pct"] = known(100*float64(succ)/float64(faulted), faulted)
	}
	if audits > 0 {
		out["data_violations"] = known(float64(viol), audits)
	}
	return out
}

// layerMetrics computes the per-layer metrics of a traced phase. Values
// are per cycle: deterministic ones averaged over the fixed set, host ones
// over every cycle. The campaign pool's counts are per mini-campaign.
func layerMetrics(p *phase) map[string]value {
	all, fixed := p.good(false), p.good(true)
	out := make(map[string]value)
	for _, d := range catalog {
		if d.scope != perLayer {
			continue
		}
		cs := all
		if d.deterministic() {
			cs = fixed
		}
		if len(cs) == 0 {
			out[d.Name] = value{}
			continue
		}
		var sum float64
		for _, c := range cs {
			sum += c.layer[d.Name]
		}
		out[d.Name] = known(sum/float64(len(cs)), len(cs))
	}
	if n := len(all); n > 0 {
		out["go.gc_cycles_per_cycle"] = known(float64(p.gcCycles)/float64(n), n)
		out["go.gc_pause_ms_per_cycle"] = known(float64(p.gcPause)/1e6/float64(n), n)
	}

	camps := p.campaigns[:min(p.fixedCamps, len(p.campaigns))]
	var c campaignResult
	for _, x := range camps {
		c.attempted += x.attempted
		c.faulted += x.faulted
		c.discarded += x.discarded
		c.boot += x.boot
		c.resurrectFailed += x.resurrectFailed
		c.audits += x.audits
		c.violations += x.violations
	}
	per := func(n int) value {
		if len(camps) == 0 {
			return known(0, 0)
		}
		return known(float64(n)/float64(len(camps)), len(camps))
	}
	out["experiment.attempted"] = per(c.attempted)
	out["experiment.faulted"] = per(c.faulted)
	out["experiment.discarded"] = per(c.discarded)
	out["experiment.boot_failures"] = per(c.boot)
	out["experiment.resurrect_failures"] = per(c.resurrectFailed)
	out["disk.audits"] = per(c.audits)
	out["disk.violations"] = per(c.violations)
	out["experiment.useful_ratio"] = known(0, 0)
	if c.attempted > 0 {
		out["experiment.useful_ratio"] = known(float64(c.faulted)/float64(c.attempted), len(camps))
	}
	return out
}

// modeledDiff compares two phases' fixed sets, which must repeat exactly:
// every deterministic end-to-end metric, every report fingerprint and
// every Table 5. It returns the first difference found.
func modeledDiff(a, b *phase) error {
	ea, eb := endToEndMetrics(a), endToEndMetrics(b)
	for _, d := range catalog {
		if d.scope == endToEnd && d.deterministic() && ea[d.Name] != eb[d.Name] {
			return fmt.Errorf("%s: untraced %+v, traced %+v", d.Name, ea[d.Name], eb[d.Name])
		}
	}
	for i := 0; i < min(a.fixed, b.fixed, len(a.cycles), len(b.cycles)); i++ {
		if a.cycles[i].fingerprint != b.cycles[i].fingerprint {
			return fmt.Errorf("cycle %d: resurrection report differs", i)
		}
	}
	for i := 0; i < min(a.fixedCamps, b.fixedCamps, len(a.campaigns), len(b.campaigns)); i++ {
		if a.campaigns[i].table != b.campaigns[i].table {
			return fmt.Errorf("mini-campaign %d: Table 5 differs", i)
		}
	}
	return nil
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
