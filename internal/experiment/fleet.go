package experiment

// The fleet-recovery scenario: hundreds of mixed MySQL / Apache / Volano /
// shell processes under a seeded open-loop request workload, crashed once
// and recovered through either the classic batch resurrection or the
// streaming pass (index-assisted discovery + SLO-tier admission + pipelined
// install commit). The scenario exists to measure what the paper's 8×MySQL
// table cannot show: how time-to-first-resume scales with population, per
// SLO tier, and what the candidate index buys the discovery prologue.
//
// Everything reported here is derived from width-independent report fields
// (ResumeTimesAt, PerCandidate, Prologue), so the fleet table, fingerprint
// and span tree are bit-identical at resurrect/campaign widths 1 and 8 —
// the property TestFleetWidthDeterminism pins against goldens.

import (
	"fmt"
	"strings"
	"time"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
	"otherworld/internal/spans"
)

// FleetConfig parameterizes one fleet recovery.
type FleetConfig struct {
	// Population is the total process count; the mix is derived from it
	// (1/8 mysqld tier-0, 1/8 apache + 1/4 volano tier-1, the rest shells
	// tier-2, each share at least one process).
	Population int
	// Seed drives the whole simulation.
	Seed int64
	// Workers is the live resurrection pool width (0 = NumCPU). Reported
	// numbers are re-evaluated at resurrect.CanonicalWorkers regardless.
	Workers int
	// Lazy selects the demand-paged install.
	Lazy bool
	// Stream selects the streaming pass (tier admission + pipelined
	// commit); false runs the classic batch engine for comparison.
	Stream bool
	// IndexSlots sizes the main kernel's candidate index (0 = none; the
	// discovery then always walks the full process list).
	IndexSlots int
	// CorruptIndex smashes the index header just before the crash, to
	// exercise the skip-and-count fallback to the full walk.
	CorruptIndex bool
	// Arrivals is each tier's open-loop request rate in requests/sec per
	// process; requests arriving during a process's outage are lost.
	Arrivals [sched.NumTiers]int
	// Tiers overrides the program→tier admission map (nil selects
	// DefaultFleetTiers). The same map drives admission and the per-tier
	// stats, so re-tiering a program moves it in both.
	Tiers map[string]int
}

// DefaultFleet returns the standard fleet configuration at the given
// population: streaming with an index sized for the population, and the
// default request rates (tier-0 200/s, tier-1 50/s, tier-2 5/s).
func DefaultFleet(population int, seed int64) FleetConfig {
	return FleetConfig{
		Population: population,
		Seed:       seed,
		Stream:     true,
		IndexSlots: population + population/4,
		Arrivals:   [sched.NumTiers]int{200, 50, 5},
	}
}

// DefaultFleetTiers is the program→tier map the fleet runs under: database
// servers are tier-0 critical, network services tier-1, shells tier-2
// batch. Programs not listed admit at resurrect.DefaultTier.
func DefaultFleetTiers() map[string]int {
	return map[string]int{
		apps.ProgMySQL:  sched.TierCritical,
		apps.ProgApache: sched.TierStandard,
		apps.ProgVolano: sched.TierStandard,
		apps.ProgShell:  sched.TierBatch,
	}
}

// FleetTierStats is one SLO tier's recovery outcome.
type FleetTierStats struct {
	// Tier is the SLO tier (sched.TierCritical..TierBatch).
	Tier int
	// Procs counts the tier's resurrection candidates.
	Procs int
	// FirstResume is the tier's modeled time-to-first-resume at the
	// canonical width, measured from the instant of failure (microreboot
	// included). Valid only when Procs > 0.
	FirstResume time.Duration
	// P50/P95/P99 are the tier's per-process interruption percentiles at
	// the canonical width. HasPercentiles is false for an empty tier —
	// a percentile over nothing renders n/a, never 0.
	P50, P95, P99  time.Duration
	HasPercentiles bool
	// RequestsLost models the tier's open-loop requests arriving during
	// per-process outages (rate × downtime, integer math).
	RequestsLost int64
}

// FleetResult is one fleet recovery's outcome.
type FleetResult struct {
	// Outcome / Machine are the underlying recovery, for metrics and span
	// inspection.
	Outcome *core.FailureOutcome
	Machine *core.Machine
	// Population is the process count the fleet actually ran.
	Population int
	// Tiers holds per-tier stats, ascending tier order, all tiers present.
	Tiers []FleetTierStats
	// Prologue is the discovery prologue (trace salvage + candidate
	// listing); the index-assisted walk shrinks exactly this.
	Prologue time.Duration
	// IndexUsed / IndexSkipped / IndexFallback mirror the report's
	// discovery accounting.
	IndexUsed, IndexSkipped int
	IndexFallback           string
}

// fleetMix derives the deterministic process mix from the population.
func fleetMix(population int) (mysql, apache, volano, shell int) {
	if population < 4 {
		population = 4
	}
	mysql = population / 8
	if mysql < 1 {
		mysql = 1
	}
	apache = population / 8
	if apache < 1 {
		apache = 1
	}
	volano = population / 4
	if volano < 1 {
		volano = 1
	}
	shell = population - mysql - apache - volano
	if shell < 1 {
		shell = 1
	}
	return mysql, apache, volano, shell
}

// FleetRecovery boots the fleet, warms it with seeded client traffic,
// crashes the kernel and recovers, then derives the per-tier stats from
// the resurrection report at the canonical width.
func FleetRecovery(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Population <= 0 {
		cfg.Population = 512
	}
	nMySQL, nApache, nVolano, nShell := fleetMix(cfg.Population)
	population := nMySQL + nApache + nVolano + nShell

	opts := core.DefaultOptions()
	// ~0.5 MB of headroom per process on top of the kernel's base need;
	// the crash reservation scales with the population so the trace ring,
	// candidate index and protected image all fit.
	opts.HW.MemoryBytes = 256<<20 + population*(512<<10)
	opts.CrashRegionMB = 16 + population/32
	opts.Seed = cfg.Seed
	tiers := cfg.Tiers
	if tiers == nil {
		tiers = DefaultFleetTiers()
	}
	opts.Resurrection.Workers = cfg.Workers
	opts.Resurrection.Stream = cfg.Stream
	opts.Resurrection.Tiers = tiers
	opts.LazyInstall = cfg.Lazy
	opts.CandidateIndexSlots = cfg.IndexSlots
	m, err := core.NewMachine(opts)
	if err != nil {
		return nil, err
	}

	// Tier-0 first: the databases get the lowest PIDs, which makes the
	// batch/stream comparison honest — the batch engine installs in
	// newest-first discovery order, so it resumes the critical tier last
	// all by itself, not because we stacked the deck.
	start := func(prefix, prog string, n int) error {
		for j := 0; j < n; j++ {
			if _, err := m.Start(fmt.Sprintf("%s-%d", prefix, j), prog); err != nil {
				return fmt.Errorf("start %s-%d: %w", prefix, j, err)
			}
		}
		return nil
	}
	if err := start("mysqld", apps.ProgMySQL, nMySQL); err != nil {
		return nil, err
	}
	if err := start("apache", apps.ProgApache, nApache); err != nil {
		return nil, err
	}
	if err := start("volano", apps.ProgVolano, nVolano); err != nil {
		return nil, err
	}
	if err := start("sh", apps.ProgShell, nShell); err != nil {
		return nil, err
	}

	// Seeded open-loop warmup: the deterministic scheduler spreads queued
	// requests round-robin over the listeners sharing each port, so every
	// server handles some traffic and faults in its working set.
	for i := 0; i < nMySQL*4; i++ {
		m.Net.Deliver(apps.MySQLPort, []byte(fmt.Sprintf("I %d fleet-%04d", i+1, i)))
	}
	for i := 0; i < nApache*2; i++ {
		m.Net.Deliver(apps.ApachePort, []byte(fmt.Sprintf("GET /s%d", i)))
	}
	m.Run(population*6 + nMySQL*16)

	if cfg.CorruptIndex {
		if reg := m.IndexRegion(); reg.Frames > 0 {
			// Smash the index header record, as a wild write from the
			// dying kernel would, so salvage rejects the whole index and
			// discovery degrades to the full walk.
			garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}
			if err := m.HW.Mem.WriteAt(phys.FrameAddr(reg.Start), garbage); err != nil {
				return nil, fmt.Errorf("corrupt index: %w", err)
			}
		}
	}
	out, err := crashAndRecover(m, "fleet crash")
	if err != nil {
		return nil, err
	}
	rep := out.Report
	if rep == nil {
		return nil, fmt.Errorf("fleet recovery produced no resurrection report")
	}

	res := &FleetResult{
		Outcome:       out,
		Machine:       m,
		Population:    population,
		Prologue:      rep.Prologue,
		IndexUsed:     rep.IndexUsed,
		IndexSkipped:  rep.IndexSkipped,
		IndexFallback: rep.IndexFallback,
	}

	// Per-process downtime at the canonical width: the serial microreboot
	// overhead outside the pass, plus the candidate's modeled resume time
	// inside it. Tier membership comes from the admission map applied to
	// the reported program — identical for batch and streamed passes.
	outside := out.SerialInterruption - rep.Duration
	if outside < 0 {
		outside = 0
	}
	resumes := rep.ResumeTimesAt(resurrect.CanonicalWorkers)
	tierOf := resurrect.Config{Tiers: tiers}.TierOf
	byTier := make([][]time.Duration, sched.NumTiers)
	for i := range rep.Procs {
		t := tierOf(rep.Procs[i].Candidate.Program)
		var down time.Duration
		if i < len(resumes) {
			down = outside + resumes[i]
		} else {
			down = out.SerialInterruption
		}
		byTier[t] = append(byTier[t], down)
	}
	reg := m.Metrics()
	for t := 0; t < sched.NumTiers; t++ {
		st := FleetTierStats{Tier: t, Procs: len(byTier[t])}
		if n := len(byTier[t]); n > 0 {
			first := byTier[t][0]
			var lost int64
			for _, d := range byTier[t] {
				if d < first {
					first = d
				}
				lost += int64(cfg.Arrivals[t]) * int64(d) / int64(time.Second)
			}
			st.FirstResume = first
			st.RequestsLost = lost
			st.P50, _ = spans.Percentile(byTier[t], 50)
			st.P95, _ = spans.Percentile(byTier[t], 95)
			st.P99, _ = spans.Percentile(byTier[t], 99)
			st.HasPercentiles = true
		}
		res.Tiers = append(res.Tiers, st)
		if reg != nil {
			l := map[string]string{"tier": fmt.Sprint(t)}
			reg.Gauge("fleet_tier_procs",
				"resurrection candidates per SLO tier in the fleet scenario", l).
				Set(float64(st.Procs))
			if st.Procs > 0 {
				reg.Counter("fleet_requests_lost_total",
					"modeled open-loop requests lost to per-process outages, by tier", l).
					Add(st.RequestsLost)
				reg.Gauge("fleet_tier_first_resume_ns",
					"per-tier time-to-first-resume at the canonical width, failure to resume", l).
					Set(float64(st.FirstResume))
			}
		}
	}
	if reg != nil {
		reg.Gauge("fleet_population", "fleet scenario process count", nil).
			Set(float64(population))
	}
	return res, nil
}

// RenderFleetTable formats the per-tier fleet stats: population, discovery
// mode, then one row per tier with first-resume and the interruption
// percentiles (n/a for tiers with no candidates).
func (r *FleetResult) RenderFleetTable() string {
	var b strings.Builder
	mode := "full-walk"
	if r.IndexUsed > 0 {
		mode = fmt.Sprintf("index (%d entries, %d skipped)", r.IndexUsed, r.IndexSkipped)
	}
	if r.IndexFallback != "" {
		mode = fmt.Sprintf("full-walk after %q", r.IndexFallback)
	}
	fmt.Fprintf(&b, "fleet: population=%d discovery=%s prologue=%v\n", r.Population, mode, r.Prologue)
	fmt.Fprintf(&b, "%-6s %6s %15s %27s %14s\n",
		"tier", "procs", "first-resume", "interruption p50/p95/p99", "requests lost")
	for _, st := range r.Tiers {
		if !st.HasPercentiles {
			fmt.Fprintf(&b, "tier-%d %6d %15s %27s %14s\n", st.Tier, st.Procs, "n/a", "n/a", "n/a")
			continue
		}
		fmt.Fprintf(&b, "tier-%d %6d %15v %27s %14d\n",
			st.Tier, st.Procs, st.FirstResume,
			fmt.Sprintf("%v/%v/%v", st.P50, st.P95, st.P99), st.RequestsLost)
	}
	return b.String()
}

// FleetSpanTree builds the causal span tree for a completed fleet recovery;
// a streamed report groups candidate lanes by SLO tier.
func (r *FleetResult) FleetSpanTree(seed int64, lazy bool, workers int) (*spans.Tree, error) {
	return SpanTreeFor(r.Machine, r.Outcome, "fleet", seed, lazy, workers)
}
