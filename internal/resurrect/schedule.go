package resurrect

import (
	"runtime"
	"time"

	"otherworld/internal/sched"
)

// CanonicalWorkers is the modeled scan width: Engine.Run advances the
// machine clock by the pass's schedule at this width, and every *rendered*
// parallel number is derived at it (Table 6's parallel column, the
// campaign's mean-interruption column, owbench snapshots). The engine may
// scan over any number of host goroutines — NumCPU by default — without
// moving the clock or any output, so a 2-core CI runner and a 64-core
// workstation agree.
const CanonicalWorkers = 4

// effectiveWorkers resolves the configured worker count: 0 (or negative)
// means NumCPU, and the pool is never wider than the candidate set (extra
// workers would only sit idle and inflate bookkeeping).
func (c Config) effectiveWorkers(candidates int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if candidates > 0 && w > candidates {
		w = candidates
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scheduleAt is the pass's modeled schedule at the given width, over each
// candidate's scan followed by the given install span (the full install for
// the machine clock, the blocked one for ScheduleAt; nil schedules the scans
// alone). It is the one place a pass picks its dispatch rule: a streamed
// pass dispatches scans to the earliest-free worker and commits installs
// behind the commit cursor (sched.Pipeline); a batch pass runs candidate
// i's scan and install back to back on worker i mod W. A report without the
// scan/install split shards its candidate spans round-robin. Only a batch
// pass's resume times use another model (sched.Barrier; see ResumeTimesAt).
func (r *Report) scheduleAt(workers int, installs []time.Duration) ([]sched.Slot, time.Duration) {
	if !r.hasSplit() {
		slots, makespan, _ := sched.Schedule(sched.RoundRobin, r.PerCandidate, nil, workers)
		return slots, makespan
	}
	if r.Streamed {
		slots, makespan, _ := sched.Pipeline(r.PerScan, installs, workers)
		return slots, makespan
	}
	units := append([]time.Duration(nil), r.PerScan...)
	for i := range installs {
		units[i] += installs[i]
	}
	slots, makespan, _ := sched.Schedule(sched.RoundRobin, units, nil, workers)
	return slots, makespan
}

// SlotsAt is the schedule ScheduleAt evaluates, slot by slot in Procs
// order: each candidate's blocked span placed on a worker at the given
// width. The span plane walks its critical chain (sched.Chain).
func (r *Report) SlotsAt(workers int) []sched.Slot {
	slots, _ := r.scheduleAt(workers, r.blockedSpans())
	return slots
}

// ScheduleAt evaluates the parallel schedule model at an arbitrary worker
// count without re-running anything: serial prologue plus the makespan of
// the stored blocked spans under the pass's dispatch rule. It is a pure
// function of worker-count-independent inputs, so tables can render a
// parallel column at CanonicalWorkers no matter how many goroutines scanned.
func (r *Report) ScheduleAt(workers int) time.Duration {
	_, makespan := r.scheduleAt(workers, r.blockedSpans())
	return r.Prologue + makespan
}

// SpeedupAt returns the modeled interruption speedup of the resurrection
// pass at the given width versus the serial schedule (Report.Duration).
func (r *Report) SpeedupAt(workers int) float64 {
	par := r.ScheduleAt(workers)
	if par <= 0 {
		return 1
	}
	return float64(r.Duration) / float64(par)
}

// blockedSpans is each candidate's install time until its process was
// runnable (the full install for eager candidates, the pre-resume slice
// for lazy ones): PerCandidate minus the scan.
func (r *Report) blockedSpans() []time.Duration {
	out := make([]time.Duration, len(r.PerCandidate))
	for i := range r.PerCandidate {
		out[i] = r.PerCandidate[i]
		if i < len(r.PerScan) {
			out[i] -= r.PerScan[i]
		}
	}
	return out
}

// hasSplit reports whether the report carries the scan/install split the
// schedule model needs (degenerate or corrupt reports may not).
func (r *Report) hasSplit() bool {
	return len(r.PerScan) == len(r.PerCandidate) &&
		len(r.PerInstall) == len(r.PerCandidate) && len(r.PerCandidate) > 0
}

// ResumeTimesAt models, at the given worker width, each candidate's
// time from pass start to its process resuming, in Procs order: its
// commit's start plus its blocked install span. For a streamed pass the
// commit starts in the pipelined-commit schedule; for a batch pass after
// the scan barrier and the serial install prefix (sched.Barrier). A pure
// function of width-independent report fields.
func (r *Report) ResumeTimesAt(workers int) []time.Duration {
	if !r.hasSplit() {
		return nil
	}
	var slots []sched.Slot
	if r.Streamed {
		slots, _ = r.scheduleAt(workers, r.PerInstall)
	} else {
		slots = sched.Barrier(r.PerScan, r.PerInstall, workers)
	}
	blocked := r.blockedSpans()
	out := make([]time.Duration, len(r.PerCandidate))
	for i := range out {
		out[i] = r.Prologue + slots[i].CommitStart + blocked[i]
	}
	return out
}

// FirstResumeAt returns the earliest modeled resume time among candidates
// selected by want (an index predicate over Procs order), at the given
// width.
func (r *Report) FirstResumeAt(workers int, want func(i int) bool) (time.Duration, bool) {
	times := r.ResumeTimesAt(workers)
	var best time.Duration
	found := false
	for i, t := range times {
		if want != nil && !want(i) {
			continue
		}
		if !found || t < best {
			best = t
			found = true
		}
	}
	return best, found
}

// TierFirstResumeAt is FirstResumeAt restricted to one admission tier of
// a streamed pass (false when the pass was not streamed or the tier is
// empty) — the per-tier time-to-first-resume the fleet tables report.
func (r *Report) TierFirstResumeAt(workers, tier int) (time.Duration, bool) {
	if !r.Streamed || len(r.Tiers) != len(r.PerCandidate) {
		return 0, false
	}
	return r.FirstResumeAt(workers, func(i int) bool { return r.Tiers[i] == tier })
}
