package main

import "otherworld/internal/resurrect"

// scope says where a metric is reported.
type scope int

const (
	// endToEnd metrics are declared in BENCHMARK.json, defined on every
	// workload and printed on the result line of an untraced run.
	endToEnd scope = iota
	// reportOnly metrics exist on some workloads only; elsewhere they are
	// null. They are printed, written by -json and judged by -compare, but
	// kept off the result line, which may carry only numbers.
	reportOnly
	// perLayer metrics are declared in BENCHMARK.json and printed on the
	// result line of a traced run.
	perLayer
)

// Clocks a metric can be read from.
const (
	// clockHost is the simulator's own run time on the host: noisy.
	clockHost = "host"
	// clockModeled is the simulated machine's virtual clock (sim.CostModel):
	// a pure function of the seed.
	clockModeled = "modeled"
	// clockCount is a count of simulated work: a pure function of the seed.
	clockCount = "count"
)

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before -compare calls it a regression.
	Bound float64
	Clock string
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string
	scope scope
}

// deterministic reports whether the metric repeats exactly at a fixed seed,
// and is therefore computed over the run's fixed cycle set only.
func (d metricDef) deterministic() bool { return d.Clock != clockHost }

func e2e(name, unit, better, clock string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Clock: clock, Bound: bound, scope: endToEnd}
}

func reportMetric(name, unit, better, clock string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Clock: clock, Bound: bound, scope: reportOnly}
}

func layer(name, unit, better, clock, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Clock: clock, Moves: moves, scope: perLayer}
}

// critShares are the critical-path buckets of the span plane
// (spans.CriticalPath): the serial stages, every resurrection phase, and
// blocked time the phase timelines did not itemize.
func critShares() []string {
	names := []string{"microreboot", "prologue"}
	for p := resurrect.PhaseParse; p <= resurrect.PhasePolicy; p++ {
		names = append(names, p.String())
	}
	return append(names, "other")
}

// catalog is every metric the benchmark emits, in print order. BENCHMARK.json
// mirrors the endToEnd and perLayer entries; TestBenchmarkJSONMatchesCatalog
// keeps the two in step.
var catalog = buildCatalog()

func buildCatalog() []metricDef {
	c := []metricDef{
		e2e("setup_s", "s", "lower", clockHost, 0.25),
		e2e("alloc_mb_per_cycle", "MiB", "lower", clockHost, 0.15),
		e2e("max_rss_mb", "MiB", "lower", clockHost, 0.15),
		e2e("interruption_s", "s", "lower", clockModeled, 0.01),
		e2e("first_resume_s", "s", "lower", clockModeled, 0.01),
		e2e("requests_lost", "req", "lower", clockModeled, 0.01),
		e2e("success_pct", "%", "higher", clockModeled, 0.15),
		e2e("crash_read_kb", "KiB", "lower", clockCount, 0.15),

		// Host times do not repeat from run to run on a shared two-vCPU VM
		// (quartile spreads of 0.16 to 0.35 across ten runs), so they are
		// compared in alternated pairs by -compare only.
		reportMetric("recover_ms_p50", "ms", "lower", clockHost, 0.2),
		reportMetric("recover_ms_p90", "ms", "lower", clockHost, 0.2),
		reportMetric("serve_ms_p50", "ms", "lower", clockHost, 0.2),
		reportMetric("cycles_per_s", "1/s", "higher", clockHost, 0.2),
		reportMetric("data_violations", "count", "lower", clockCount, 0),
		reportMetric("failed_pct", "%", "lower", clockCount, 0),

		layer("core.new_machine_ms", "ms", "lower", clockHost, "setup_s"),
		layer("core.handle_failure_mb", "MiB", "lower", clockHost, "alloc_mb_per_cycle"),
		layer("core.handle_failure_allocs", "count", "lower", clockHost, "recover_ms_p50"),
		layer("kernel.start_ms", "ms", "lower", clockHost, "setup_s"),
		layer("kernel.warmup_ms", "ms", "lower", clockHost, "setup_s"),
		layer("kernel.warmup_quanta", "count", "lower", clockCount, "setup_s"),
		layer("kernel.serve_ms", "ms", "lower", clockHost, "serve_ms_p50"),
		layer("phys.read_mb", "MiB", "lower", clockCount, "recover_ms_p50"),
		layer("phys.read_ops", "count", "lower", clockCount, "recover_ms_p50"),
		layer("phys.write_mb", "MiB", "lower", clockCount, "recover_ms_p50"),
		layer("layout.index_parse_us", "us", "lower", clockHost, "recover_ms_p50"),
		layer("layout.index_entries", "count", "higher", clockCount, "crash_read_kb"),
		layer("layout.index_skipped", "count", "lower", clockCount, "crash_read_kb"),
		layer("layout.proc_decode_us", "us", "lower", clockHost, "recover_ms_p50"),
		layer("layout.procs_decoded", "count", "higher", clockCount, "crash_read_kb"),
		layer("layout.decode_errors", "count", "lower", clockCount, "success_pct"),
		layer("trace.parse_us", "us", "lower", clockHost, "recover_ms_p50"),
		layer("trace.events", "count", "higher", clockCount, "recover_ms_p50"),
		layer("trace.damaged", "count", "lower", clockCount, "recover_ms_p50"),
		layer("metrics.segment_parse_us", "us", "lower", clockHost, "recover_ms_p50"),
		layer("metrics.segment_valid_pages", "count", "higher", clockCount, "recover_ms_p50"),
		layer("metrics.segment_corrupted", "count", "lower", clockCount, "recover_ms_p50"),
		layer("resurrect.candidates", "count", "higher", clockCount, "success_pct"),
		layer("resurrect.succeeded", "count", "higher", clockCount, "success_pct"),
		layer("resurrect.pages_elided", "count", "higher", clockCount, "recover_ms_p50"),
		layer("resurrect.pages_deduped", "count", "higher", clockCount, "recover_ms_p50"),
		layer("resurrect.flush_extents", "count", "lower", clockCount, "interruption_s"),
		layer("resurrect.pages_speculated", "count", "higher", clockCount, "serve_ms_p50"),
		layer("resurrect.spec_fallbacks", "count", "lower", clockCount, "serve_ms_p50"),
		layer("resurrect.first_touch_n", "count", "lower", clockCount, "serve_ms_p50"),
		layer("resurrect.first_touch_us", "us", "lower", clockModeled, "serve_ms_p50"),
		layer("resurrect.read_kb", "KiB", "lower", clockCount, "crash_read_kb"),
		layer("resurrect.pass_s", "s", "lower", clockModeled, "interruption_s"),
		layer("resurrect.prologue_s", "s", "lower", clockModeled, "first_resume_s"),
		layer("sched.pipeline_us", "us", "lower", clockHost, "first_resume_s"),
		layer("sched.makespan_s", "s", "lower", clockModeled, "interruption_s"),
		layer("spans.build_ms", "ms", "lower", clockHost, "cycles_per_s"),
	}
	for _, s := range critShares() {
		c = append(c, layer("spans.crit."+s+"_s", "s", "lower", clockModeled, "interruption_s"))
	}
	c = append(c, layer("spans.crit_gap_s", "s", "lower", clockModeled, "interruption_s"))
	return append(c,
		layer("disk.audits", "count", "higher", clockCount, "success_pct"),
		layer("disk.violations", "count", "lower", clockCount, "success_pct"),
		layer("experiment.attempted", "count", "higher", clockCount, "cycles_per_s"),
		layer("experiment.faulted", "count", "higher", clockCount, "success_pct"),
		layer("experiment.discarded", "count", "lower", clockCount, "cycles_per_s"),
		layer("experiment.useful_ratio", "ratio", "higher", clockCount, "cycles_per_s"),
		layer("experiment.boot_failures", "count", "lower", clockCount, "success_pct"),
		layer("experiment.resurrect_failures", "count", "lower", clockCount, "success_pct"),
		layer("go.gc_cycles_per_cycle", "count", "lower", clockHost, "recover_ms_p50"),
		layer("go.gc_pause_ms_per_cycle", "ms", "lower", clockHost, "recover_ms_p50"),
		layer("trace_overhead_pct", "%", "lower", clockHost, "cycles_per_s"),
	)
}
