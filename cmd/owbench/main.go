// Command owbench regenerates every table in the paper's evaluation:
//
//	-table 1   the resurrection-policy matrix (Section 3.5)
//	-table 2   per-application modifications (Section 5)
//	-table 3   user-space protection overhead (Section 4 / 6)
//	-table 4   data read by the crash kernel during resurrection
//	-table 5   fault-injection reliability results (Section 6)
//	-table 6   boot and service-interruption times
//	-checkpoint  the Section 5.4 in-memory vs disk checkpoint comparison
//	-ablation    the 89%→97% hardening ablation
//	-all         everything above (default)
//
// Absolute numbers come from the simulation substrate; EXPERIMENTS.md
// records them next to the paper's measurements.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/experiment"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/metrics"
	"otherworld/internal/resurrect"
	"otherworld/internal/spans"
)

func main() {
	table := flag.Int("table", 0, "print a single table (1-6)")
	checkpoint := flag.Bool("checkpoint", false, "run the checkpoint comparison")
	ablation := flag.Bool("ablation", false, "run the hardening ablation")
	compare := flag.Bool("compare", false, "compare recovery modes (reboot / KDump / Otherworld)")
	scaling := flag.Bool("scaling", false, "sweep footprints (Section 4 size argument)")
	all := flag.Bool("all", false, "run everything")
	n := flag.Int("n", 60, "faulted experiments per app for tables 5/ablation (paper: 400)")
	ops := flag.Int("ops", 400, "measured operations per benchmark for table 3")
	seed := flag.Int64("seed", 20100413, "seed")
	showTrace := flag.Bool("trace", false, "print table-5 failure attributions from the flight recorder")
	traceJSON := flag.String("trace-json", "", "write table-5 failure attributions as JSON to this file")
	resWorkers := flag.Int("resurrect-workers", 0, "resurrection pipeline workers for campaigns (0 = NumCPU); changes only the modeled interruption time")
	campaignWorkers := flag.Int("campaign-workers", 0, "campaign pool width: whole experiments run concurrently (0 = NumCPU); results and published figures are identical at any width")
	lazyInstall := flag.Bool("lazy-install", false, "run the table campaigns with demand-paged resurrection (the bench snapshot always measures both modes)")
	benchDiff := flag.String("bench-diff", "", "rebuild the bench snapshot and fail if any modeled-time metric regressed >10% against this baseline BENCH_N.json")
	fleetPop := flag.Int("fleet", 0, "run the fleet-recovery comparison at this population (streaming vs batch per-tier tables) and exit; the JSON snapshot always measures population 256")
	jsonOut := flag.String("json", "", "write a perf snapshot (per-benchmark custom metrics, seed, workers, metrics snapshot) as JSON to this file and exit; schema in EXPERIMENTS.md")
	showMetrics := flag.Bool("metrics", false, "print the bench scenario's final metrics snapshot and exit")
	metricsJSON := flag.String("metrics-json", "", "write the bench scenario's metrics snapshot (otherworld-metrics/1) to this file and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *benchDiff != "" {
		if err := benchDiffMode(*benchDiff, *resWorkers, *campaignWorkers); err != nil {
			fatal(err)
		}
		return
	}
	if *fleetPop > 0 {
		if err := fleetCompareMode(*fleetPop, *seed, *resWorkers, *lazyInstall); err != nil {
			fatal(err)
		}
		return
	}
	if *jsonOut != "" || *showMetrics || *metricsJSON != "" {
		if err := benchSnapshotMode(*jsonOut, *seed, *resWorkers, *campaignWorkers, *showMetrics, *metricsJSON); err != nil {
			fatal(err)
		}
		return
	}
	if !*all && *table == 0 && !*checkpoint && !*ablation && !*compare && !*scaling {
		*all = true
	}
	run := func(t int) bool { return *all || *table == t }

	if run(1) {
		fmt.Println("== Table 1: resurrection levels (verified by the resurrect package tests)")
		fmt.Println(experiment.RenderTable1())
	}
	if run(2) {
		fmt.Println("== Table 2: modifications to the applications to support Otherworld")
		fmt.Printf("%-12s %-16s %s\n", "Application", "Crash procedure", "Modified lines of code")
		for _, info := range apps.Table2() {
			req := "Not required"
			if info.CrashProcRequired {
				req = "Required"
			}
			fmt.Printf("%-12s %-16s %d\n", info.App, req, info.ModifiedLines)
		}
		fmt.Println()
	}
	if run(3) {
		fmt.Println("== Table 3: overhead of user memory space protection")
		rows, err := experiment.RunTable3(*ops, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderTable3(rows))
	}
	if run(4) {
		fmt.Println("== Table 4: data read by the crash kernel during resurrection")
		rows, err := experiment.RunTable4(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderTable4(rows))
	}
	if run(5) {
		fmt.Printf("== Table 5: resurrection experiments (%d faulted runs/app; paper used 400)\n", *n)
		cfg := experiment.DefaultCampaign(*n, *seed)
		cfg.ResurrectWorkers = *resWorkers
		cfg.CampaignWorkers = *campaignWorkers
		cfg.LazyInstall = *lazyInstall
		rows, stats := experiment.RunTable5Campaign(cfg)
		fmt.Print(experiment.RenderTable5(rows))
		fmt.Printf("campaign schedule: %d experiments, %v of modeled work; %v at %d workers (%.2fx, %.0f%% pool occupancy)\n",
			stats.Experiments, stats.TotalWork.Round(time.Second),
			stats.Makespan.Round(time.Second), experiment.CanonicalCampaignWorkers,
			stats.SpeedupAt(experiment.CanonicalCampaignWorkers), 100*stats.Occupancy)
		for _, w := range experiment.Shortfalls(rows) {
			fmt.Fprintln(os.Stderr, "owbench: warning: undershoot:", w)
		}
		faulted, discarded, structCorrupt := experiment.Totals(rows)
		fmt.Printf("\ndiscarded no-fault runs: %d (%.0f%%); kernel-structure corruption: %d of %d\n\n",
			discarded, 100*float64(discarded)/float64(faulted+discarded), structCorrupt, faulted)
		if *showTrace {
			fmt.Println("failure attributions (from the crash-surviving flight recorder):")
			for _, r := range experiment.TopReasons(rows) {
				fmt.Println(" ", r)
			}
			fmt.Println()
		}
		if *traceJSON != "" {
			byApp := make(map[string][]experiment.AttributionCount, len(rows))
			for _, row := range rows {
				byApp[row.App] = row.Attributions
			}
			data, err := json.MarshalIndent(byApp, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*traceJSON, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("failure attributions written to", *traceJSON)
		}
	}
	if run(6) {
		fmt.Println("== Table 6: service interruption time (seconds)")
		rows, err := experiment.RunTable6(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderTable6(rows))
	}
	if *all || *checkpoint {
		fmt.Println("== Section 5.4: in-memory vs on-disk checkpointing")
		if err := checkpointComparison(*seed); err != nil {
			fatal(err)
		}
	}
	if *all || *compare {
		fmt.Println("== Recovery-mode comparison (Section 1/2): the same crash, three worlds")
		rows, err := experiment.CompareRecoveryModes("MySQL", *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderComparison("MySQL", rows))
	}
	if *all || *scaling {
		fmt.Println("== Footprint scaling (Section 4): crash-kernel read set vs process size")
		rows, err := experiment.MeasureScaling(*seed, false)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.RenderScaling(rows))
	}
	if *all || *ablation {
		fmt.Printf("== Section 6 ablation: hardening fixes (%d faulted runs/app)\n", *n)
		if err := hardeningAblation(*n, *seed); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "owbench:", err)
	os.Exit(1)
}

// fleetCompareMode (-fleet N) recovers the same N-process fleet twice — the
// streaming pass with index-assisted discovery, then the classic batch
// engine with the full-walk prologue — and prints the per-tier tables side
// by side with the headline ratios.
func fleetCompareMode(population int, seed int64, resWorkers int, lazy bool) error {
	scfg := experiment.DefaultFleet(population, seed)
	scfg.Workers = resWorkers
	scfg.Lazy = lazy
	stream, err := experiment.FleetRecovery(scfg)
	if err != nil {
		return fmt.Errorf("fleet streaming: %w", err)
	}
	bcfg := experiment.DefaultFleet(population, seed)
	bcfg.Stream = false
	bcfg.IndexSlots = 0
	bcfg.Workers = resWorkers
	bcfg.Lazy = lazy
	batch, err := experiment.FleetRecovery(bcfg)
	if err != nil {
		return fmt.Errorf("fleet batch: %w", err)
	}
	fmt.Println("== Fleet recovery: streaming pass (index discovery + tier admission + pipelined commit)")
	fmt.Print(stream.RenderFleetTable())
	fmt.Println("\n== Fleet recovery: batch pass (full-walk discovery, scan-all-then-install)")
	fmt.Print(batch.RenderFleetTable())
	if s0, b0 := stream.Tiers[0], batch.Tiers[0]; s0.HasPercentiles && b0.HasPercentiles && s0.FirstResume > 0 {
		fmt.Printf("\ntier-0 time-to-first-resume: streaming %v vs batch %v (%.2fx)\n",
			s0.FirstResume, b0.FirstResume, float64(b0.FirstResume)/float64(s0.FirstResume))
	}
	if stream.Prologue > 0 {
		fmt.Printf("discovery prologue: index %v vs full walk %v (%.2fx)\n",
			stream.Prologue, batch.Prologue, float64(batch.Prologue)/float64(stream.Prologue))
	}
	return nil
}

// --- Perf snapshot (-json): the benchmark trajectory ------------------------

// benchSchemaV7 is the snapshot schema owbench writes; readSnapshot accepts
// no other.
const benchSchemaV7 = "otherworld-bench/7"

// benchSnapshot is the BENCH_N.json schema (documented in EXPERIMENTS.md).
// Every number is derived from the deterministic simulation, so the file is
// a pure function of the seed and worker knobs.
type benchSnapshot struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// ResurrectWorkers is the -resurrect-workers knob the snapshot ran
	// with (0 = NumCPU); it cannot change any metric below — recorded so a
	// future regression that breaks that invariant is visible.
	ResurrectWorkers int `json:"resurrect_workers"`
	// CanonicalWorkers is the fixed width parallel columns render at.
	CanonicalWorkers int `json:"canonical_workers"`
	// CampaignWorkers is the -campaign-workers knob; like ResurrectWorkers
	// it cannot change any metric below — the campaign sweep is quoted
	// from the modeled schedule, not the live pool.
	CampaignWorkers int          `json:"campaign_workers,omitempty"`
	Benchmarks      []benchEntry `json:"benchmarks"`
	// Metrics is the bench scenario machine's final metrics snapshot. Its
	// logical_now_ns is normalized to zero — the one
	// worker-schedule-dependent field, excluded here for the same reason
	// Fingerprint excludes it: the file must stay a pure function of the
	// seed at any -resurrect-workers width.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// readSnapshot decodes a BENCH_N.json file of the schema this binary
// writes.
func readSnapshot(data []byte) (*benchSnapshot, error) {
	var s benchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.Schema != benchSchemaV7 {
		return nil, fmt.Errorf("unknown bench snapshot schema %q", s.Schema)
	}
	return &s, nil
}

type benchEntry struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchSnapshotMode serves the three snapshot-flavored flags from ONE run
// of the bench scenario: -json (the BENCH_N.json file), -metrics (render
// the machine's registry), -metrics-json (the owstat-consumable file).
func benchSnapshotMode(jsonPath string, seed int64, resWorkers, campaignWorkers int, show bool, metricsPath string) error {
	snap, msnap, err := buildSnapshot(seed, resWorkers, campaignWorkers)
	if err != nil {
		return err
	}
	if show {
		fmt.Printf("bench scenario metrics (%d series):\n", len(msnap.Points))
		if err := msnap.RenderTable(os.Stdout); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		data, err := msnap.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsPath, data, 0o644); err != nil {
			return err
		}
		fmt.Println("metrics snapshot written to", metricsPath)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("perf snapshot written to", jsonPath)
	}
	return nil
}

// buildSnapshot measures the perf-trajectory scenarios and assembles the
// BENCH_N snapshot: the multi-process parallel-resurrection sweep (the
// ISSUE 3 acceptance scenario, now with the install-phase fast-path
// counters), the campaign-pool worker sweep (schema /3) and the Table 6
// boot/interruption rows, plus — since schema /2 — the scenario machine's
// metrics snapshot. The un-normalized metrics snapshot is returned
// separately for -metrics.
func buildSnapshot(seed int64, resWorkers, campaignWorkers int) (*benchSnapshot, *metrics.Snapshot, error) {
	snap := &benchSnapshot{
		Schema:           benchSchemaV7,
		Seed:             seed,
		ResurrectWorkers: resWorkers,
		CanonicalWorkers: resurrect.CanonicalWorkers,
		CampaignWorkers:  campaignWorkers,
	}

	fo, m, err := experiment.MultiMySQLRecovery(seed, resWorkers, false)
	if err != nil {
		return nil, nil, fmt.Errorf("resurrect-parallel scenario: %w", err)
	}
	rep := fo.Report
	par := benchEntry{Name: "resurrect-parallel/mysql-x8", Metrics: map[string]float64{
		"serial-s": rep.Duration.Seconds(),
	}}
	for _, w := range []int{1, 2, 4, 8} {
		par.Metrics[fmt.Sprintf("sched-%dw-s", w)] = rep.ScheduleAt(w).Seconds()
		par.Metrics[fmt.Sprintf("speedup-%dw-x", w)] = rep.SpeedupAt(w)
	}
	var elided, deduped, flushPages, flushExtents int
	var saved int64
	for _, p := range rep.Procs {
		elided += p.PagesElided
		deduped += p.PagesDeduped
		flushPages += p.DirtyFlushed
		flushExtents += p.FlushExtents
		saved += p.SavedBytes
	}
	par.Metrics["pages-elided"] = float64(elided)
	par.Metrics["pages-deduped"] = float64(deduped)
	// Actual bytes the fast path avoided copying — a partial tail page of a
	// non-page-multiple region counts its live bytes, not a full page.
	par.Metrics["fastpath-saved-KB"] = float64(saved) / 1024
	par.Metrics["flush-pages"] = float64(flushPages)
	par.Metrics["flush-extents"] = float64(flushExtents)
	snap.Benchmarks = append(snap.Benchmarks, par)

	// The demand-paged variant of the same scenario (schema /4): serial-s is
	// the modeled interruption with every process resuming at context
	// install, so the eager-vs-lazy collapse is quoted side by side with the
	// entry above. The speculated-page count proves the run actually
	// deferred its copies instead of finding nothing to speculate.
	lfo, _, err := experiment.MultiMySQLRecovery(seed, resWorkers, true)
	if err != nil {
		return nil, nil, fmt.Errorf("resurrect-lazy scenario: %w", err)
	}
	lrep := lfo.Report
	lazy := benchEntry{Name: "resurrect-lazy/mysql-x8", Metrics: map[string]float64{
		"serial-s": lrep.Duration.Seconds(),
	}}
	for _, w := range []int{1, 2, 4, 8} {
		lazy.Metrics[fmt.Sprintf("sched-%dw-s", w)] = lrep.ScheduleAt(w).Seconds()
	}
	var speculated int
	for _, p := range lrep.Procs {
		speculated += p.PagesSpeculated
	}
	lazy.Metrics["pages-speculated"] = float64(speculated)
	if lrep.Duration > 0 {
		lazy.Metrics["collapse-x"] = rep.Duration.Seconds() / lrep.Duration.Seconds()
	}
	// Schema /6: the demand-fault stall distribution the lazy run observed.
	lazy.Metrics["first-touch-n"] = float64(len(lrep.FirstTouch))
	// Percentile keys are present only when stalls were observed: an empty
	// distribution has no percentiles, and a fake 0 would poison bench-diff.
	if p50, ok := spans.Percentile(lrep.FirstTouch, 50); ok {
		p95, _ := spans.Percentile(lrep.FirstTouch, 95)
		p99, _ := spans.Percentile(lrep.FirstTouch, 99)
		lazy.Metrics["first-touch-p50-us"] = float64(p50.Microseconds())
		lazy.Metrics["first-touch-p95-us"] = float64(p95.Microseconds())
		lazy.Metrics["first-touch-p99-us"] = float64(p99.Microseconds())
	}
	snap.Benchmarks = append(snap.Benchmarks, lazy)

	// The campaign-pool sweep (schema /3): a small real vi campaign, its
	// committed spans fed through the schedule model at every width. The
	// figures come from CampaignStats, so the live -campaign-workers value
	// changes host wall clock only.
	ccfg := experiment.DefaultCampaign(4, seed)
	ccfg.Apps = []string{"vi"}
	ccfg.CampaignWorkers = campaignWorkers
	ccfg.ResurrectWorkers = resWorkers
	crows, cstats := experiment.RunTable5Campaign(ccfg)
	camp := benchEntry{Name: "campaign-parallel/vi", Metrics: map[string]float64{
		"serial-s":     cstats.SerialMakespan.Seconds(),
		"experiments":  float64(cstats.Experiments),
		"occupancy-4w": cstats.Occupancy,
	}}
	for _, w := range []int{1, 2, 4, 8} {
		camp.Metrics[fmt.Sprintf("sched-%dw-s", w)] = cstats.ScheduleAt(w).Seconds()
		camp.Metrics[fmt.Sprintf("speedup-%dw-x", w)] = cstats.SpeedupAt(w)
	}
	// Schema /6: serial-model interruption percentiles over the campaign's
	// successful recoveries (the Table5Row percentile columns).
	for _, r := range crows {
		if r.App != "vi" {
			continue
		}
		camp.Metrics["interruption-p50-s"] = r.P50Interruption.Seconds()
		camp.Metrics["interruption-p95-s"] = r.P95Interruption.Seconds()
		camp.Metrics["interruption-p99-s"] = r.P99Interruption.Seconds()
	}
	snap.Benchmarks = append(snap.Benchmarks, camp)

	// The WAL data-survival audit (schema /5): both WAL protocol variants run
	// under the block-layer crash model with cold-reboot ("just reboot")
	// recovery — the worst case for the log, every dirty page an orphan. The
	// fixed protocol must survive every post-crash disk audit; the buggy
	// variant's missing record fsync shows up as violated audits. Like every
	// campaign figure, the counts are a pure function of the seed.
	wcfg := experiment.DefaultCampaign(6, seed)
	wcfg.Apps = []string{"WAL", "WAL-bug"}
	wcfg.DiskCrash = true
	wcfg.Baseline = true
	wcfg.SkipProtected = true
	wcfg.CampaignWorkers = campaignWorkers
	wcfg.ResurrectWorkers = resWorkers
	wrows, wstats := experiment.RunTable5Campaign(wcfg)
	wal := benchEntry{Name: "wal-survival/walkv", Metrics: map[string]float64{
		"serial-s": wstats.SerialMakespan.Seconds(),
	}}
	for _, r := range wrows {
		suffix := "-fixed"
		if r.App == "WAL-bug" {
			suffix = "-buggy"
		}
		wal.Metrics["audits"+suffix] = float64(r.DataChecked)
		wal.Metrics["violations"+suffix] = float64(r.DataViolations)
	}
	snap.Benchmarks = append(snap.Benchmarks, wal)

	// The fleet-scale streaming pair (schema /7): a 256-process mixed fleet
	// recovered by the streaming pass (index-assisted discovery + tier
	// admission + pipelined commit) and again by the classic batch engine.
	// Per-tier first-resume and percentiles are modeled at the canonical
	// width and the batch entry quotes the same fleet through the full-walk
	// path, so the discovery and tier-0 wins are pinned side by side.
	fcfg := experiment.DefaultFleet(256, seed)
	fcfg.Workers = resWorkers
	fres, err := experiment.FleetRecovery(fcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet-stream scenario: %w", err)
	}
	fleet := benchEntry{Name: "fleet-stream/mixed-256", Metrics: map[string]float64{
		"population":    float64(fres.Population),
		"serial-s":      fres.Outcome.Report.Duration.Seconds(),
		"prologue-s":    fres.Prologue.Seconds(),
		"index-entries": float64(fres.IndexUsed),
		"index-skipped": float64(fres.IndexSkipped),
	}}
	for _, st := range fres.Tiers {
		if !st.HasPercentiles {
			continue
		}
		pfx := fmt.Sprintf("tier%d-", st.Tier)
		fleet.Metrics[pfx+"procs"] = float64(st.Procs)
		fleet.Metrics[pfx+"first-resume-s"] = st.FirstResume.Seconds()
		fleet.Metrics[pfx+"p50-s"] = st.P50.Seconds()
		fleet.Metrics[pfx+"p95-s"] = st.P95.Seconds()
		fleet.Metrics[pfx+"p99-s"] = st.P99.Seconds()
		fleet.Metrics[pfx+"requests-lost"] = float64(st.RequestsLost)
	}
	snap.Benchmarks = append(snap.Benchmarks, fleet)

	bcfg := experiment.DefaultFleet(256, seed)
	bcfg.Stream = false
	bcfg.IndexSlots = 0
	bcfg.Workers = resWorkers
	bres, err := experiment.FleetRecovery(bcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet-batch scenario: %w", err)
	}
	batch := benchEntry{Name: "fleet-batch/mixed-256", Metrics: map[string]float64{
		"population": float64(bres.Population),
		"serial-s":   bres.Outcome.Report.Duration.Seconds(),
		"prologue-s": bres.Prologue.Seconds(),
	}}
	for _, st := range bres.Tiers {
		if !st.HasPercentiles {
			continue
		}
		pfx := fmt.Sprintf("tier%d-", st.Tier)
		batch.Metrics[pfx+"first-resume-s"] = st.FirstResume.Seconds()
	}
	if s0, b0 := fres.Tiers[0], bres.Tiers[0]; s0.HasPercentiles && b0.HasPercentiles &&
		s0.FirstResume > 0 {
		batch.Metrics["tier0-stream-win-x"] = float64(b0.FirstResume) / float64(s0.FirstResume)
	}
	snap.Benchmarks = append(snap.Benchmarks, batch)

	rows, err := experiment.RunTable6(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("table 6: %w", err)
	}
	for _, r := range rows {
		m := map[string]float64{
			"boot-s":                       r.BootTime.Seconds(),
			"interruption-serial-s":        r.Interruption.Seconds(),
			"interruption-parallel-s":      r.ParallelInterruption.Seconds(),
			"interruption-lazy-serial-s":   r.LazyInterruption.Seconds(),
			"interruption-lazy-parallel-s": r.LazyParallelInterruption.Seconds(),
			// Schema /6: the lazy run's first-touch stall percentiles.
			"first-touch-n": float64(r.FirstTouchSamples),
		}
		// No samples means the percentiles are unknown, not zero.
		if r.FirstTouchSamples > 0 {
			m["first-touch-p50-us"] = float64(r.P50FirstTouch.Microseconds())
			m["first-touch-p95-us"] = float64(r.P95FirstTouch.Microseconds())
			m["first-touch-p99-us"] = float64(r.P99FirstTouch.Microseconds())
		}
		snap.Benchmarks = append(snap.Benchmarks, benchEntry{Name: "table6/" + r.App, Metrics: m})
	}

	msnap := m.MetricsSnapshot()
	embedded := *msnap
	embedded.LogicalNowNS = 0 // worker-schedule-dependent; see the field doc
	snap.Metrics = &embedded
	return snap, msnap, nil
}

// benchDiffMode rebuilds the bench snapshot in-process with the baseline's
// seed and compares every modeled-time metric (the "-s"-suffixed series):
// any that grew more than 10% over the baseline is a regression and the
// command exits non-zero. Improvements and new benchmarks pass; a benchmark
// present in the baseline but missing from the rebuild fails.
func benchDiffMode(path string, resWorkers, campaignWorkers int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	base, err := readSnapshot(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	cur, _, err := buildSnapshot(base.Seed, resWorkers, campaignWorkers)
	if err != nil {
		return err
	}
	curByName := make(map[string]benchEntry, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	const tolerance = 0.10
	regressions := 0
	for _, ob := range base.Benchmarks {
		nb, ok := curByName[ob.Name]
		if !ok {
			fmt.Printf("MISSING  %-28s (present in baseline, absent now)\n", ob.Name)
			regressions++
			continue
		}
		names := make([]string, 0, len(ob.Metrics))
		for name := range ob.Metrics {
			if strings.HasSuffix(name, "-s") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ov := ob.Metrics[name]
			nv, have := nb.Metrics[name]
			if !have {
				fmt.Printf("MISSING  %-28s %s (metric dropped)\n", ob.Name, name)
				regressions++
				continue
			}
			delta := 0.0
			if ov > 0 {
				delta = (nv - ov) / ov
			}
			status := "ok      "
			if nv > ov*(1+tolerance) {
				status = "REGRESSED"
				regressions++
			}
			fmt.Printf("%s %-28s %-22s %10.3fs -> %10.3fs (%+.1f%%)\n",
				status, ob.Name, name, ov, nv, 100*delta)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d modeled-time metric(s) regressed >%d%% against %s",
			regressions, int(100*tolerance), path)
	}
	fmt.Printf("no modeled-time regressions against %s (tolerance %d%%)\n", path, int(100*tolerance))
	return nil
}

// checkpointComparison measures BLCR-style checkpoints to memory and disk.
func checkpointComparison(seed int64) error {
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 256 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = seed
	m, err := core.NewMachine(opts)
	if err != nil {
		return err
	}
	p, err := m.Start("blcr", apps.ProgBLCR)
	if err != nil {
		return err
	}
	env := &kernel.Env{K: m.K, P: p}
	memCost, diskCost, err := apps.MeasureCheckpointCosts(env)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint image: %d MiB\n", apps.BLCRDataPages*4096>>20)
	fmt.Printf("to memory: %7.1f ms\n", float64(memCost.Microseconds())/1000)
	fmt.Printf("to disk:   %7.1f ms\n", float64(diskCost.Microseconds())/1000)
	fmt.Printf("speedup:   %6.1fx (paper: ~10x)\n\n", float64(diskCost)/float64(memCost))
	return nil
}

// hardeningAblation contrasts full hardening against none (the paper's
// initial 89% configuration).
func hardeningAblation(n int, seed int64) error {
	for _, mode := range []struct {
		name string
		h    kernel.Hardening
	}{
		{"all fixes on ", kernel.FullHardening()},
		{"all fixes off", kernel.NoHardening()},
	} {
		cfg := experiment.DefaultCampaign(n, seed)
		cfg.Hardening = mode.h
		cfg.SkipProtected = true
		rows := experiment.RunTable5(cfg)
		var success, total float64
		for _, r := range rows {
			success += r.Success * float64(r.N)
			total += float64(r.N)
		}
		fmt.Printf("%s: %.1f%% successful resurrection (mean over %d runs)\n",
			mode.name, 100*success/total, int(total))
	}
	fmt.Println("(the paper reports 89% before the fixes and 97%+ after)")
	fmt.Println()
	return nil
}
