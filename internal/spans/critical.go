package spans

import (
	"time"

	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
)

// Share is one bucket of the critical-path attribution: how much of the
// modeled interruption at the analysis width one phase (or one serial
// stage) is responsible for.
type Share struct {
	// Name is "microreboot", "prologue", a resurrection phase name
	// ("parse", "page-copy", ...), or "other" for blocked time the
	// per-phase timelines did not itemize.
	Name string
	Dur  time.Duration
}

// CriticalPath attributes the modeled interruption at a given worker width
// to the chain of spans that bounds it: the critical chain (sched.Chain) of
// the pass's own modeled schedule (Report.SlotsAt). For a batch pass's
// round-robin schedule that is the slowest worker's candidates; for a
// streamed pass it runs through the commit cursor and the scans that held
// it up.
type CriticalPath struct {
	// Workers is the analysis width.
	Workers int
	// Interruption is the modeled outage at that width: the serial
	// microreboot overhead, the resurrection prologue, and the critical
	// chain's length. It equals core.FailureOutcome.InterruptionAt(Workers)
	// by construction.
	Interruption time.Duration
	// Worker is the worker the chain ends on (lowest index wins ties).
	Worker int
	// Candidates are the candidate indices on the chain, ascending.
	Candidates []int
	// Shares partitions Interruption without remainder: the sum of every
	// Share.Dur is exactly Interruption, so rendered percentages always
	// total 100%.
	Shares []Share
}

// Permille returns s's share of the interruption in tenths of a percent,
// rounded half-up — integer math, so rendering is bit-identical everywhere.
func (cp *CriticalPath) Permille(s Share) int64 {
	if cp.Interruption <= 0 {
		return 0
	}
	return (int64(s.Dur)*1000 + int64(cp.Interruption)/2) / int64(cp.Interruption)
}

// criticalPath extracts the attribution from worker-count-independent
// report fields. Every nanosecond of the modeled interruption lands in
// exactly one bucket: the serial stages in theirs, and each link of the
// critical chain cut out of its candidate's blocked span — the timeline's
// phases laid end to end in execution order, a commit link starting where
// its scan ended — with any remainder the timeline did not itemize in
// "other". Timeline tail beyond the blocked span is deferred (post-resume)
// work and deliberately excluded — it does not bound the outage. Negative
// durations can only come from a corrupted report; the schedule counts
// them as zero and so does the cut, and a bucket is kept whenever it is
// non-zero, so the shares-sum invariant survives arbitrary input, overflow
// included (FuzzSpanBuild).
func criticalPath(rep *resurrect.Report, outside time.Duration, workers int) CriticalPath {
	cp := CriticalPath{Workers: workers}
	prologue := max(rep.Prologue, 0)
	slots := rep.SlotsAt(workers)
	chain := sched.Chain(slots)
	var end time.Duration
	if len(chain) > 0 {
		last := chain[len(chain)-1]
		cp.Worker, end = slots[last.Slot].Worker, last.End
	}
	cp.Interruption = outside + prologue + end

	// Phase buckets are indexed by resurrect.Phase so the output order is
	// the pipeline's execution order, never a map walk.
	const maxPhase = int(resurrect.PhasePolicy) + 1
	var phases [maxPhase]time.Duration
	var other time.Duration
	for _, l := range chain {
		i := l.Slot
		cp.Candidates = append(cp.Candidates, i)
		skip, remaining := l.Offset, l.End-l.Start
		if i < len(rep.Procs) {
			for _, st := range rep.Procs[i].Timeline {
				if remaining <= 0 {
					break
				}
				d := max(st.Duration, 0)
				cut := min(d, skip)
				skip -= cut
				take := min(d-cut, remaining)
				if p := int(st.Phase); p >= 0 && p < maxPhase {
					phases[p] += take
				} else {
					other += take
				}
				remaining -= take
			}
		}
		other += remaining
	}

	cp.Shares = append(cp.Shares, Share{Name: "microreboot", Dur: outside})
	cp.Shares = append(cp.Shares, Share{Name: "prologue", Dur: prologue})
	for p := 0; p < maxPhase; p++ {
		if phases[p] != 0 {
			cp.Shares = append(cp.Shares, Share{Name: resurrect.Phase(p).String(), Dur: phases[p]})
		}
	}
	if other != 0 {
		cp.Shares = append(cp.Shares, Share{Name: "other", Dur: other})
	}
	return cp
}
