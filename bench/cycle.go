package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/experiment"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
	"otherworld/internal/spans"
	"otherworld/internal/trace"
)

// scenario is the workload-specific part of one crash→recover cycle on a
// fresh machine. A new scenario is made for every cycle.
type scenario interface {
	// options is the machine configuration at the given resurrection width.
	options(width int) core.Options
	// start launches the processes.
	start(m *core.Machine) error
	// warm drives the warm-up traffic and returns the quanta it ran.
	warm(m *core.Machine) (int, error)
	// serve runs the post-crash traffic: from the end of recovery until
	// the workload has been answered.
	serve(m *core.Machine) error
	// verify checks the workload's outputs after the timed steps.
	verify(m *core.Machine, fo *core.FailureOutcome) error
	// candidates is how many processes resurrection must find (0: any).
	candidates() int
	// mustSurvive reports whether a program's processes must continue or
	// restart after every crash.
	mustSurvive(program string) bool
}

// arrivals is the open-loop request rate per process of each SLO tier, in
// requests per second (the fleet scenario's defaults): requests arriving
// while a process is down are lost.
var arrivals = [sched.NumTiers]int64{200, 50, 5}

// cycleResult is everything one cycle measured.
type cycleResult struct {
	seed int64
	// Host clock.
	setup, recover, serve time.Duration
	// Modeled clock, at resurrect.CanonicalWorkers.
	interruption, firstResume time.Duration
	lost                      int64
	succeeded, candidates     int
	crashRead                 int64
	// layer holds the cycle's per-layer values by metric name.
	layer map[string]float64
	// fingerprint hashes the resurrection report, when asked for.
	fingerprint string
	err         error
}

// cycleOpts selects the optional work of a cycle.
type cycleOpts struct {
	width int
	// replay runs the read-only decoder replays on the dead image.
	replay bool
	// fingerprint records the report fingerprint.
	fingerprint bool
	// name and lazy label the cycle's span tree.
	name string
	lazy bool
}

// crash boots the scenario's machine, warms it and injects the oops. It
// returns the crashed machine and the host time of those steps, the cycle's
// set-up.
func crash(tr *tracer, sc scenario, width int, lv map[string]float64) (*core.Machine, time.Duration, error) {
	var (
		m      *core.Machine
		err    error
		quanta int
	)
	d := tr.do("core.new_machine", func() { m, err = core.NewMachine(sc.options(width)) })
	lv["core.new_machine_ms"] = ms(d)
	setup := d
	if err != nil {
		return nil, setup, fmt.Errorf("new machine: %w", err)
	}
	d = tr.do("kernel.start", func() { err = sc.start(m) })
	lv["kernel.start_ms"] = ms(d)
	setup += d
	if err != nil {
		return nil, setup, fmt.Errorf("start: %w", err)
	}
	d = tr.do("kernel.warmup", func() { quanta, err = sc.warm(m) })
	lv["kernel.warmup_ms"] = ms(d)
	lv["kernel.warmup_quanta"] = float64(quanta)
	setup += d
	if err != nil {
		return nil, setup, fmt.Errorf("warm-up: %w", err)
	}
	setup += tr.do("kernel.inject_oops", func() { err = m.K.InjectOops("bench crash") })
	if m.K.Panicked() == nil {
		return nil, setup, fmt.Errorf("oops did not panic the kernel: %v", err)
	}
	return m, setup, nil
}

// runCycle runs one crash→recover cycle and checks it. A failed check
// lands in the result's err; the cycle's timings are kept either way.
func runCycle(tr *tracer, sc scenario, seed int64, o cycleOpts) cycleResult {
	r := cycleResult{seed: seed, layer: make(map[string]float64)}
	m, setup, err := crash(tr, sc, o.width, r.layer)
	r.setup = setup
	if err != nil {
		r.err = err
		return r
	}
	if o.replay {
		replay(tr, m, sc.options(o.width).MetricsPages, r.layer)
	}

	var (
		fo       *core.FailureOutcome
		ms0, ms1 runtime.MemStats
	)
	if o.replay {
		runtime.ReadMemStats(&ms0)
	}
	phys0 := m.HW.Mem.Stats()
	r.recover = tr.do("core.handle_failure", func() { fo, err = m.HandleFailure() })
	phys1 := m.HW.Mem.Stats()
	if o.replay {
		runtime.ReadMemStats(&ms1)
		r.layer["core.handle_failure_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		r.layer["core.handle_failure_allocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	}
	r.layer["phys.read_mb"] = float64(phys1.ReadBytes-phys0.ReadBytes) / (1 << 20)
	r.layer["phys.read_ops"] = float64(phys1.ReadOps - phys0.ReadOps)
	r.layer["phys.write_mb"] = float64(phys1.WriteBytes-phys0.WriteBytes) / (1 << 20)
	if err != nil {
		r.err = fmt.Errorf("handle failure: %w", err)
		return r
	}
	if fo.Result != core.ResultRecovered || fo.Report == nil {
		r.err = fmt.Errorf("machine not recovered: %s (%s)", fo.Result, fo.Transfer.Reason)
		return r
	}
	rep := fo.Report
	if o.fingerprint {
		r.fingerprint = hashString(rep.Fingerprint())
	}

	r.serve = tr.do("kernel.serve", func() { err = sc.serve(m) })
	r.layer["kernel.serve_ms"] = ms(r.serve)
	if err != nil {
		r.err = fmt.Errorf("serve: %w", err)
		return r
	}

	modeled(&r, fo)
	r.layer["sched.pipeline_us"] = 1e3 * ms(tr.do("sched.pipeline", func() {
		sched.Pipeline(rep.PerScan, rep.PerInstall, resurrect.CanonicalWorkers)
	}))
	var tree *spans.Tree
	r.layer["spans.build_ms"] = ms(tr.do("spans.build", func() {
		tree, err = experiment.SpanTreeFor(m, fo, o.name, seed, o.lazy, resurrect.CanonicalWorkers)
	}))
	if err == nil {
		var sum time.Duration
		for _, s := range tree.Critical.Shares {
			sum += s.Dur
			r.layer["spans.crit."+s.Name+"_s"] += s.Dur.Seconds()
		}
		// The span plane attributes the outage with the batch schedule
		// model; a streamed pass's outage follows the pipelined one, so
		// only a batch pass's shares must add up to it. The gap is
		// reported instead.
		r.layer["spans.crit_gap_s"] = (r.interruption - tree.Critical.Interruption).Seconds()
		if sum != tree.Critical.Interruption || !rep.Streamed && sum != r.interruption {
			err = fmt.Errorf("critical-path shares sum to %v, critical path %v, interruption %v",
				sum, tree.Critical.Interruption, r.interruption)
		}
	}
	if err != nil {
		r.err = fmt.Errorf("span plane: %w", err)
		return r
	}

	tr.do("bench.verify", func() {
		if err = checkReport(sc, fo); err == nil {
			err = sc.verify(m, fo)
		}
	})
	r.err = err
	return r
}

// checkReport holds the checks every recovery shares: the expected
// candidates were found and every one that must survive continued or
// restarted.
func checkReport(sc scenario, fo *core.FailureOutcome) error {
	rep := fo.Report
	if want := sc.candidates(); want > 0 && len(rep.Procs) != want {
		return fmt.Errorf("%d resurrection candidates, want %d", len(rep.Procs), want)
	}
	if len(rep.Procs) == 0 {
		return errors.New("no resurrection candidates")
	}
	for _, p := range rep.Procs {
		if !sc.mustSurvive(p.Candidate.Program) {
			continue
		}
		if p.Outcome != resurrect.OutcomeContinued && p.Outcome != resurrect.OutcomeRestarted {
			return fmt.Errorf("pid %d %s: %s (%v)", p.Candidate.PID, p.Candidate.Name, p.Outcome, p.Err)
		}
	}
	return nil
}

// modeled reads the cycle's modeled-clock results from the outcome: the
// outage at the canonical width, each process's downtime (the serial
// microreboot overhead outside the pass plus its modeled resume time, the
// fleet scenario's definition), the first resume of the most critical tier
// present, and the open-loop requests lost while processes were down.
func modeled(r *cycleResult, fo *core.FailureOutcome) {
	rep := fo.Report
	r.interruption = fo.InterruptionAt(resurrect.CanonicalWorkers)
	outside := max(fo.SerialInterruption-rep.Duration, 0)
	resumes := rep.ResumeTimesAt(resurrect.CanonicalWorkers)
	tierOf := resurrect.Config{Tiers: experiment.DefaultFleetTiers()}.TierOf
	bestTier := sched.NumTiers
	for i, p := range rep.Procs {
		down := fo.SerialInterruption
		if i < len(resumes) {
			down = outside + resumes[i]
		}
		t := tierOf(p.Candidate.Program)
		r.lost += arrivals[t] * int64(down) / int64(time.Second)
		if t < bestTier || (t == bestTier && down < r.firstResume) {
			bestTier, r.firstResume = t, down
		}
	}
	r.succeeded, r.candidates = rep.Succeeded(), len(rep.Procs)
	r.crashRead = rep.Acct.KernelDataBytes()

	var elided, deduped, extents, spec, fallbacks int
	for _, p := range rep.Procs {
		elided += p.PagesElided
		deduped += p.PagesDeduped
		extents += p.FlushExtents
		spec += p.PagesSpeculated
		if p.SpecFallback != "" {
			fallbacks++
		}
	}
	var touch time.Duration
	for _, d := range rep.FirstTouch {
		touch += d
	}
	lv := r.layer
	lv["resurrect.candidates"] = float64(r.candidates)
	lv["resurrect.succeeded"] = float64(r.succeeded)
	lv["resurrect.pages_elided"] = float64(elided)
	lv["resurrect.pages_deduped"] = float64(deduped)
	lv["resurrect.flush_extents"] = float64(extents)
	lv["resurrect.pages_speculated"] = float64(spec)
	lv["resurrect.spec_fallbacks"] = float64(fallbacks)
	lv["resurrect.first_touch_n"] = float64(len(rep.FirstTouch))
	lv["resurrect.first_touch_us"] = float64(touch.Nanoseconds()) / 1e3
	var read int64
	for _, n := range rep.Acct.ByCategory {
		read += n
	}
	lv["resurrect.read_kb"] = float64(read) / 1024
	lv["resurrect.pass_s"] = rep.Duration.Seconds()
	lv["resurrect.prologue_s"] = rep.Prologue.Seconds()
	lv["sched.makespan_s"] = rep.ScheduleAt(resurrect.CanonicalWorkers).Seconds()
}

// replay runs the crash kernel's decoders a second time, read-only, on the
// dead image between the oops and HandleFailure: the flight-recorder ring,
// the metrics segment behind the ring and index, the candidate index, and
// every process record the index names, CRC-checked. The reads go straight
// to physical memory and charge nothing to the modeled clock.
func replay(tr *tracer, m *core.Machine, metricsPages int, lv map[string]float64) {
	mem := m.HW.Mem
	ring := m.TraceRegion()
	var parsed *trace.Parsed
	lv["trace.parse_us"] = 1e3 * ms(tr.do("trace.parse", func() { parsed = trace.Parse(mem, ring) }))
	lv["trace.events"] = float64(len(parsed.Events))
	lv["trace.damaged"] = float64(parsed.Damaged)

	idx := m.IndexRegion()
	seg := phys.Region{Start: ring.End(), Frames: metricsPages}
	if idx.Frames > 0 {
		seg.Start = idx.End()
	}
	var ps *metrics.ParsedSegment
	lv["metrics.segment_parse_us"] = 1e3 * ms(tr.do("metrics.parse_segment", func() { ps = metrics.ParseSegment(mem, seg) }))
	lv["metrics.segment_valid_pages"] = float64(ps.Valid)
	lv["metrics.segment_corrupted"] = float64(ps.Corrupted)

	if idx.Frames == 0 {
		return
	}
	var (
		sal *layout.IndexSalvage
		err error
	)
	lv["layout.index_parse_us"] = 1e3 * ms(tr.do("layout.parse_index", func() {
		sal, err = layout.ParseIndex(mem, phys.FrameAddr(idx.Start), idx.Frames*phys.PageSize, true)
	}))
	if err != nil {
		lv["layout.decode_errors"]++
		return
	}
	lv["layout.index_entries"] = float64(len(sal.Entries))
	lv["layout.index_skipped"] = float64(sal.Skipped)
	lv["layout.proc_decode_us"] = 1e3 * ms(tr.do("layout.read_proc", func() {
		for _, e := range sal.Entries {
			if _, err := layout.ReadProc(mem, e.Addr, true); err != nil {
				lv["layout.decode_errors"]++
				continue
			}
			lv["layout.procs_decoded"]++
		}
	}))
}

// fingerprintAt crashes and recovers a fresh copy of the scenario at the
// given width and returns the hash of its resurrection report.
func fingerprintAt(sc scenario, width int) (string, error) {
	m, _, err := crash(newTracer(false), sc, width, make(map[string]float64))
	if err != nil {
		return "", err
	}
	fo, err := m.HandleFailure()
	if err != nil {
		return "", err
	}
	if fo.Report == nil {
		return "", fmt.Errorf("no resurrection report at width %d", width)
	}
	return hashString(fo.Report.Fingerprint()), nil
}

func hashString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
