package experiment

import (
	"fmt"
	"strings"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/spans"
	"otherworld/internal/workload"
)

// --- Table 3: overhead of user-space protection ---------------------------

// Table3Row is one benchmark's protection overhead.
type Table3Row struct {
	Benchmark string
	// TLBMissIncrease is (protected misses / baseline misses) - 1.
	TLBMissIncrease float64
	// Overhead is (protected cycles / baseline cycles) - 1.
	Overhead float64
}

// Table3Benchmarks lists the paper's Table 3 workloads.
var Table3Benchmarks = []string{"MySQL", "Apache/PHP", "Volano"}

// measureRun drives a workload for exactly ops acknowledged operations and
// returns the cycle and TLB-miss deltas over the measurement window.
func measureRun(app string, ops int, seed int64, protection bool) (cycles, misses uint64, acked int, err error) {
	opts := core.DefaultOptions()
	opts.UserSpaceProtection = protection
	opts.Seed = seed
	m, d, err := startApp(opts, app, seed+1)
	if err != nil {
		return 0, 0, 0, err
	}
	// Warm the TLB and caches before the measurement window.
	workload.RunUntilIdle(m, d, ops/10+5, (ops/10+5)*50)
	c0 := m.K.Perf.Cycles
	m0 := m.K.M.TLB.Misses
	a0 := d.Acked()
	for d.Acked() < a0+ops {
		res := workload.RunUntilIdle(m, d, ops, ops*60)
		if res.Panic != nil {
			return 0, 0, 0, fmt.Errorf("panic during measurement: %v", res.Panic)
		}
		if res.Idle && d.Acked() == a0 {
			return 0, 0, 0, fmt.Errorf("workload idle with no progress")
		}
	}
	return m.K.Perf.Cycles - c0, m.K.M.TLB.Misses - m0, d.Acked() - a0, nil
}

// MeasureTable3 runs one benchmark with protection off and on and returns
// the overhead row.
func MeasureTable3(app string, ops int, seed int64) (Table3Row, error) {
	baseCycles, baseMisses, n0, err := measureRun(app, ops, seed, false)
	if err != nil {
		return Table3Row{}, fmt.Errorf("%s baseline: %w", app, err)
	}
	protCycles, protMisses, n1, err := measureRun(app, ops, seed, true)
	if err != nil {
		return Table3Row{}, fmt.Errorf("%s protected: %w", app, err)
	}
	// Normalize per op in case the rounds differ slightly.
	bc := float64(baseCycles) / float64(n0)
	pc := float64(protCycles) / float64(n1)
	bm := float64(baseMisses) / float64(n0)
	pm := float64(protMisses) / float64(n1)
	row := Table3Row{Benchmark: app}
	if bm > 0 {
		row.TLBMissIncrease = pm/bm - 1
	}
	if bc > 0 {
		row.Overhead = pc/bc - 1
	}
	return row, nil
}

// RunTable3 measures every Table 3 benchmark.
func RunTable3(ops int, seed int64) ([]Table3Row, error) {
	rows := make([]Table3Row, 0, len(Table3Benchmarks))
	for _, b := range Table3Benchmarks {
		row, err := MeasureTable3(b, ops, seed)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 formats rows like the paper's Table 3.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %23s %21s\n", "Benchmark", "Increase in TLB misses", "Performance overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %22.0f%% %20.1f%%\n", r.Benchmark, 100*r.TLBMissIncrease, 100*r.Overhead)
	}
	return b.String()
}

// --- Table 4: data read by the crash kernel --------------------------------

// Table4Row is one application's resurrection byte accounting.
type Table4Row struct {
	App string
	// KernelBytes is the main-kernel data the crash kernel read.
	KernelBytes int64
	// PageTableFraction is the page-table share of KernelBytes.
	PageTableFraction float64
}

// MeasureTable4 runs the workload, induces a clean panic, and measures what
// the crash kernel read while resurrecting the application.
func MeasureTable4(app string, seed int64) (Table4Row, error) {
	opts := core.DefaultOptions()
	opts.Seed = seed
	m, d, err := startApp(opts, app, seed+1)
	if err != nil {
		return Table4Row{}, err
	}
	res := workload.RunUntilIdle(m, d, 150, 6000)
	if res.Panic != nil {
		return Table4Row{}, fmt.Errorf("panic during workload: %v", res.Panic)
	}
	fo, err := crashAndRecover(m, "table 4 measurement")
	if err != nil {
		return Table4Row{}, err
	}
	acct := fo.Report.Acct
	return Table4Row{
		App:               app,
		KernelBytes:       acct.KernelDataBytes(),
		PageTableFraction: acct.PageTableFraction(),
	}, nil
}

// RunTable4 measures every Table 4 application.
func RunTable4(seed int64) ([]Table4Row, error) {
	rows := make([]Table4Row, 0, len(AppNames))
	for _, app := range AppNames {
		row, err := MeasureTable4(app, seed)
		if err != nil {
			return rows, fmt.Errorf("%s: %w", app, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable4 formats rows like the paper's Table 4.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %14s %12s\n", "Application", "Kernel memory", "Page tables")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %11d KB %11.0f%%\n", r.App, r.KernelBytes/1024, 100*r.PageTableFraction)
	}
	return b.String()
}

// --- Table 6: service interruption time ------------------------------------

// Table6Row is one workload's boot and interruption timing, measured under
// both install modes: the eager full-copy install and the demand-paged lazy
// install (Section 7's early-resume direction), each from an identically
// seeded machine.
type Table6Row struct {
	App string
	// BootTime is power-button to workload-operational (virtual time).
	BootTime time.Duration
	// Interruption is failure to workload-operational-again. The machine
	// runs one application, so the resurrection pass has one candidate and
	// the same schedule at every worker width: the paper's single-threaded
	// prototype and any parallel pool quote this one outage.
	Interruption time.Duration
	// LazyInterruption is the same outage with the lazy install enabled:
	// the candidate resumes at context install, so its blocked span
	// collapses to parse time.
	LazyInterruption time.Duration
	// FirstTouchSamples and the percentile fields summarize the post-resume
	// demand-fault stalls the lazy run observed (Report.FirstTouch): how long
	// each first touch of a not-yet-installed page blocked the workload.
	// Nearest-rank percentiles over touch order, width-independent.
	FirstTouchSamples int
	P50FirstTouch     time.Duration
	P95FirstTouch     time.Duration
	P99FirstTouch     time.Duration
}

// Table6Workloads lists the paper's Table 6 rows.
var Table6Workloads = []string{"shell", "MySQL", "Apache/PHP"}

// measureTable6Mode runs the Table 6 protocol — boot to first ack, settle,
// fail, recover, run to the next ack — on one machine with the given install
// mode, returning the boot time and the outage.
func measureTable6Mode(app string, seed int64, lazy bool) (boot, outage time.Duration, firstTouch []time.Duration, err error) {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.LazyInstall = lazy
	m, d, err := startApp(opts, app, seed+1)
	if err != nil {
		return 0, 0, nil, err
	}
	// Operational = the first operation acknowledged.
	for d.Acked() == 0 {
		if res := workload.RunUntilIdle(m, d, 5, 200); res.Panic != nil {
			return 0, 0, nil, fmt.Errorf("panic during boot measurement: %v", res.Panic)
		}
	}
	boot = m.HW.Clock.Now()

	// Let the workload settle, then fail the kernel.
	workload.RunUntilIdle(m, d, 100, 4000)
	failedAt := m.HW.Clock.Now()
	fo, err := crashAndRecover(m, "table 6 measurement")
	if err != nil {
		return 0, 0, nil, err
	}
	if err := d.Reattach(m); err != nil {
		return 0, 0, nil, err
	}
	before := d.Acked()
	for d.Acked() <= before {
		if res := workload.RunUntilIdle(m, d, 5, 200); res.Panic != nil {
			return 0, 0, nil, fmt.Errorf("panic during recovery measurement: %v", res.Panic)
		}
	}
	// The measured delta carries the pass's clock span (the full install);
	// swap it for the serial model. Under the lazy install Report.Duration
	// sums the blocked-to-resume span, so the corrected outage is
	// time-to-resume, which is the point.
	measured := m.HW.Clock.Now() - failedAt
	if fo.Report == nil {
		return boot, measured, nil, nil
	}
	return boot, measured - fo.Interruption + fo.SerialInterruption, fo.Report.FirstTouch, nil
}

// MeasureTable6 measures a workload's cold-boot time and its service
// interruption across a microreboot, under the eager and the lazy install.
func MeasureTable6(app string, seed int64) (Table6Row, error) {
	boot, outage, _, err := measureTable6Mode(app, seed, false)
	if err != nil {
		return Table6Row{}, err
	}
	_, lazyOutage, firstTouch, err := measureTable6Mode(app, seed, true)
	if err != nil {
		return Table6Row{}, fmt.Errorf("lazy install: %w", err)
	}
	row := Table6Row{
		App:               app,
		BootTime:          boot,
		Interruption:      outage,
		LazyInterruption:  lazyOutage,
		FirstTouchSamples: len(firstTouch),
	}
	// Percentiles only exist when the lazy run recorded stalls; rows with
	// zero samples keep zero fields and render as n/a.
	if len(firstTouch) > 0 {
		row.P50FirstTouch, _ = spans.Percentile(firstTouch, 50)
		row.P95FirstTouch, _ = spans.Percentile(firstTouch, 95)
		row.P99FirstTouch, _ = spans.Percentile(firstTouch, 99)
	}
	return row, nil
}

// RunTable6 measures every Table 6 workload.
func RunTable6(seed int64) ([]Table6Row, error) {
	rows := make([]Table6Row, 0, len(Table6Workloads))
	for _, app := range Table6Workloads {
		row, err := MeasureTable6(app, seed)
		if err != nil {
			return rows, fmt.Errorf("%s: %w", app, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable6 formats rows like the paper's Table 6 (seconds), extended
// with the lazy-install interruption (millisecond precision: the lazy
// outage is time-to-resume, far below a second on the measured workloads)
// and the lazy run's first-touch stall percentiles (n and p50/p95/p99).
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %10s %13s %17s %30s\n",
		"Application", "Boot time", "Interruption", "lazy install",
		"first-touch p50/p95/p99")
	for _, r := range rows {
		// The stalls and their count are one field, padded in runes like
		// the header (fmt counts runes, and µ is two bytes).
		stalls := "n/a"
		if r.FirstTouchSamples > 0 {
			stalls = fmt.Sprintf("%v/%v/%v", r.P50FirstTouch, r.P95FirstTouch, r.P99FirstTouch)
		}
		fmt.Fprintf(&b, "%-11s %9.0fs %12.0fs %16.3fs %30s\n",
			r.App, r.BootTime.Seconds(), r.Interruption.Seconds(),
			r.LazyInterruption.Seconds(), fmt.Sprintf("%s n=%d", stalls, r.FirstTouchSamples))
	}
	return b.String()
}

// --- Tables 1 and 2: policy matrix and application modifications -----------

// RenderTable1 prints the resurrection-policy matrix (Table 1), which the
// property tests in package resurrect verify behaviourally.
func RenderTable1() string {
	return strings.Join([]string{
		"                        | Crash procedure defined            | No crash procedure defined",
		"All resources           | procedure may save data and restart| execution continues from the",
		"were resurrected        | or instruct the kernel to continue | interruption point",
		"Some resources          | procedure may restore resources and| resurrection fails",
		"could not be            | continue, or save state and restart|",
		"resurrected             | (bitmask reports what is missing)  |",
	}, "\n") + "\n"
}
