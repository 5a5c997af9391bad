// Package spans is Otherworld's causal span plane: a post-mortem
// reconstruction of *why* one handled kernel failure took as long as it did.
// Nothing here runs while the kernel is healthy — the only runtime footprint
// is the handful of span-boundary trace kinds (trace.KindSpanMark) the
// experiment harness records after recovery. Everything else is derived
// after the crash from state that already survives it: the dead kernel's
// flight-recorder ring, the resurrection report's per-phase timelines and
// per-candidate schedule inputs, and the experiment's attributions.
//
// Build turns those inputs into a deterministic span tree per experiment
// (inject → manifest → panic → microreboot → scan/install per candidate →
// resume → first-touch → data-audit), keyed entirely by logical time and by
// worker-count-independent report fields, so the tree — and its rendered
// text and Perfetto exports — is bit-identical at any resurrection or
// campaign worker width. On top of the tree, CriticalPath re-evaluates the
// schedule at an arbitrary width and attributes every nanosecond of the
// modeled interruption to a phase bucket; the buckets sum *exactly* to the
// interruption at that width, so shares always total 100%.
//
// The builder is total over corrupt input: a damaged ring slot, a truncated
// report or an unknown span-mark code is skipped and counted on
// Tree.Skipped, never a panic or an abort (FuzzSpanBuild pins this).
package spans

import (
	"fmt"
	"time"

	"otherworld/internal/resurrect"
	"otherworld/internal/trace"
)

// Span categories, mirroring Chrome trace-event "cat" values.
const (
	// CatExperiment is the root span.
	CatExperiment = "experiment"
	// CatMark is an instant: an injected fault, a manifestation, the panic,
	// the resume point, the data audit.
	CatMark = "mark"
	// CatRecovery is serial recovery machinery: the microreboot
	// (transfer + crash-kernel boot + morph) and the resurrection pass.
	CatRecovery = "recovery"
	// CatCandidate is one process's blocked resurrection span.
	CatCandidate = "candidate"
	// CatPhase is one resurrection phase inside a candidate's blocked span.
	CatPhase = "phase"
	// CatDeferred is resurrection work that ran after the candidate resumed
	// (lazy install only): it overlaps normal operation, off the blocked span.
	CatDeferred = "deferred"
	// CatLazy is post-resume demand paging: the first-touch stall sequence.
	CatLazy = "lazy"
)

// Input is everything Build needs; all fields except Report are optional.
type Input struct {
	// App / Seed / Lazy label the experiment the spans describe.
	App  string
	Seed int64
	Lazy bool
	// Workers is the analysis width for critical-path extraction; <1 means
	// resurrect.CanonicalWorkers. It selects which worker's candidate chain
	// bounds the interruption — the tree itself is width-independent.
	Workers int
	// Report is the resurrection pass (required).
	Report *resurrect.Report
	// DeadTrace is the dead kernel's salvaged flight recorder
	// (core.FailureOutcome.Trace); when present it supplies the
	// pre-failure instants (inject/manifest/panic).
	DeadTrace *trace.Parsed
	// Interruption is the experiment's serial-schedule outage
	// (core.FailureOutcome.SerialInterruption). Zero means "resurrection
	// only": the microreboot span collapses and the tree covers just the
	// report's duration.
	Interruption time.Duration
	// PostEvents are events recorded on the *new* kernel's ring after
	// recovery; Build consumes the trace.KindSpanMark entries (resume and
	// audit milestones) and counts unknown span-mark codes as skipped.
	PostEvents []trace.Event
	// DataChecked / DataErr carry the post-crash data audit verdict.
	DataChecked bool
	DataErr     string
}

// Span is one node of the tree. Start is an offset from recovery t=0 (the
// instant of failure handling); pre-failure instants sit at negative
// offsets. Dur == 0 means an instant.
type Span struct {
	Name string
	Cat  string
	// Start / Dur are virtual-time offsets from recovery t=0.
	Start time.Duration
	Dur   time.Duration
	// PID is the process the span belongs to (0 for machine-level spans).
	PID uint32
	// TID is the Perfetto row: 0 for the machine track, candidate index+1
	// for per-candidate tracks.
	TID      int
	Note     string
	Children []*Span
}

// End returns Start+Dur.
func (s *Span) End() time.Duration { return s.Start + s.Dur }

// Tree is one experiment's reconstructed span plane.
type Tree struct {
	App     string
	Seed    int64
	Lazy    bool
	Workers int
	Root    *Span
	// Skipped counts inputs the builder could not use: damaged ring slots,
	// report entries with no matching schedule input, unknown span-mark
	// codes. Corruption is counted, never fatal.
	Skipped int
	// Critical is the critical-path attribution at Tree.Workers.
	Critical CriticalPath
	// FirstTouch is the report's demand-fault stall sequence (lazy only).
	FirstTouch []time.Duration
}

// Build reconstructs the span tree for one experiment. It never panics on
// corrupt input and only errors when given nothing to build from.
func Build(in Input) (*Tree, error) {
	rep := in.Report
	if rep == nil {
		return nil, fmt.Errorf("spans: no resurrection report to build from")
	}
	w := in.Workers
	if w < 1 {
		w = resurrect.CanonicalWorkers
	}
	t := &Tree{
		App:        in.App,
		Seed:       in.Seed,
		Lazy:       in.Lazy,
		Workers:    w,
		FirstTouch: append([]time.Duration(nil), rep.FirstTouch...),
	}
	root := &Span{Name: "experiment", Cat: CatExperiment}
	t.Root = root

	// Pre-failure instants from the dead kernel's ring. The ring carries
	// logical sequence numbers, not timestamps, so the instants are placed
	// at synthetic negative offsets — one microsecond apart, in sequence
	// order — purely to make the causal order visible on a timeline.
	if in.DeadTrace != nil {
		t.Skipped += in.DeadTrace.Damaged
		var pre []trace.Event
		for _, ev := range in.DeadTrace.Events {
			switch ev.Kind {
			case trace.KindFaultInject, trace.KindFaultManifest, trace.KindPanic:
				pre = append(pre, ev)
			}
		}
		for j, ev := range pre {
			root.Children = append(root.Children, &Span{
				Name:  ev.Kind.String(),
				Cat:   CatMark,
				Start: -time.Duration(len(pre)-j) * time.Microsecond,
				PID:   ev.PID,
				Note:  ev.Note,
			})
		}
	}

	// The serial recovery skeleton. Everything outside the resurrection
	// pass (transfer of control, crash-kernel boot, morph) is serial and
	// coalesces into the microreboot span; the resurrection pass follows,
	// prologue first, then each candidate's blocked span laid out in the
	// serial schedule (stable candidate order — the exact input ScheduleAt
	// replays at any width).
	outside := in.Interruption - rep.Duration
	if outside < 0 {
		outside = 0
	}
	if outside > 0 {
		root.Children = append(root.Children, &Span{
			Name: "microreboot", Cat: CatRecovery, Start: 0, Dur: outside,
			Note: "transfer + crash-kernel boot + morph (serial, outside the resurrection pass)",
		})
	}
	res := &Span{Name: "resurrection", Cat: CatRecovery, Start: outside, Dur: rep.Duration}
	root.Children = append(root.Children, res)
	res.Children = append(res.Children, &Span{
		Name: "prologue", Cat: CatRecovery, Start: outside, Dur: rep.Prologue,
		Note: "candidate listing + swap resolution",
	})
	cum := outside + rep.Prologue
	// A streamed pass reports each candidate's SLO admission tier; the tree
	// then groups candidate rows into per-tier Perfetto lanes (TID block
	// 1000·(tier+1)) and stamps the tier on the span note. Batch reports
	// carry no tiers and keep the classic candidate-index rows, so existing
	// goldens are untouched.
	tiered := rep.Streamed && len(rep.Tiers) == len(rep.PerCandidate)
	for i, blocked := range rep.PerCandidate {
		cand := &Span{Cat: CatCandidate, Start: cum, Dur: blocked, TID: i + 1}
		if tiered {
			cand.TID = 1000*(rep.Tiers[i]+1) + i + 1
		}
		if i < len(rep.Procs) {
			pr := &rep.Procs[i]
			cand.PID = pr.Candidate.PID
			cand.Name = fmt.Sprintf("pid %d %s", pr.Candidate.PID, pr.Candidate.Name)
			cand.Note = pr.Outcome.String()
			if tiered {
				cand.Note = fmt.Sprintf("tier-%d %s", rep.Tiers[i], pr.Outcome.String())
			}
			off := cum
			for _, st := range pr.Timeline {
				cat := CatPhase
				if off-cum >= blocked {
					cat = CatDeferred
				}
				child := &Span{
					Name: st.Phase.String(), Cat: cat, Start: off, Dur: st.Duration,
					PID: cand.PID, TID: cand.TID, Note: st.Err,
				}
				cand.Children = append(cand.Children, child)
				off += st.Duration
			}
		} else {
			// Schedule input with no matching process report: corrupt or
			// truncated report. Keep the span, count the gap.
			cand.Name = fmt.Sprintf("candidate %d", i)
			t.Skipped++
		}
		res.Children = append(res.Children, cand)
		cum += blocked
	}
	// Process reports with no matching schedule input are the mirror gap.
	if len(rep.Procs) > len(rep.PerCandidate) {
		t.Skipped += len(rep.Procs) - len(rep.PerCandidate)
	}

	// Post-recovery milestones. The resume point is where the serial outage
	// ends; under the lazy install the demand-fault stalls follow it, laid
	// serially (the report records stall lengths, not absolute fault times),
	// and the data audit closes the experiment.
	end := outside + rep.Duration
	resumeNote := fmt.Sprintf("%d procs resumed", rep.Succeeded())
	auditSeen := false
	for _, ev := range in.PostEvents {
		if ev.Kind != trace.KindSpanMark {
			continue
		}
		switch ev.A {
		case trace.SpanMarkResume:
			resumeNote = fmt.Sprintf("%d procs resumed", ev.B)
		case trace.SpanMarkAudit:
			auditSeen = true
		default:
			t.Skipped++
		}
	}
	root.Children = append(root.Children, &Span{
		Name: "resume", Cat: CatMark, Start: end, Note: resumeNote,
	})
	if len(t.FirstTouch) > 0 {
		ft := &Span{Name: "first-touch", Cat: CatLazy, Start: end}
		off := end
		for i, stall := range t.FirstTouch {
			ft.Children = append(ft.Children, &Span{
				Name: fmt.Sprintf("touch %d", i), Cat: CatLazy, Start: off, Dur: stall,
			})
			off += stall
		}
		ft.Dur = off - end
		root.Children = append(root.Children, ft)
		end = off
	}
	if in.DataChecked || auditSeen {
		note := "clean"
		if in.DataErr != "" {
			note = in.DataErr
		}
		root.Children = append(root.Children, &Span{
			Name: "data-audit", Cat: CatMark, Start: end, Note: note,
		})
	}

	// The root covers everything it holds.
	start, last := root.Start, root.End()
	for _, c := range root.Children {
		if c.Start < start {
			start = c.Start
		}
		if c.End() > last {
			last = c.End()
		}
	}
	root.Start, root.Dur = start, last-start

	t.Critical = criticalPath(rep, outside, w)
	return t, nil
}
