package experiment

import (
	"fmt"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/spans"
	"otherworld/internal/trace"
)

// MultiMySQLRecovery crashes a machine running eight MySQL servers and
// returns the failure outcome plus the recovered machine (its registry now
// holds the full crash-and-resurrect trajectory) — the shared scenario
// behind the owbench snapshot entries, the span-plane width goldens and
// `owstat timeline -app mysql-x8`. The servers are
// warmed with real client traffic first; that matters for the fast-path
// counters, because serving requests demand-faults each server's row arena
// (~70 pages, almost all still zero), so the resurrection scan sees the
// zero-elision and dedup opportunities a freshly-booted idle server would
// not expose. lazy runs the demand-paged install (validated speculation)
// instead of the eager full-copy.
func MultiMySQLRecovery(seed int64, resWorkers int, lazy bool) (*core.FailureOutcome, *core.Machine, error) {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Resurrection.Workers = resWorkers
	opts.LazyInstall = lazy
	m, err := core.NewMachine(opts)
	if err != nil {
		return nil, nil, err
	}
	for j := 0; j < 8; j++ {
		if _, err := m.Start(fmt.Sprintf("mysqld-%d", j), apps.ProgMySQL); err != nil {
			return nil, nil, err
		}
	}
	// The servers share the listen port; the deterministic scheduler spreads
	// the queued inserts round-robin, so every server handles traffic.
	for i := 0; i < 96; i++ {
		m.Net.Deliver(apps.MySQLPort, []byte(fmt.Sprintf("I %d warm-%04d", i+1, i)))
	}
	m.Run(600)
	out, err := crashAndRecover(m, "bench snapshot")
	if err != nil {
		return nil, nil, err
	}
	return out, m, nil
}

// SpanTreeFor reconstructs the causal span tree for a completed scenario
// recovery: it records the resume span mark on the new kernel's flight
// recorder, re-parses the crash-surviving trace ring, and builds the tree
// at the given analysis width (workers < 1 selects the canonical width).
// The tree is keyed by logical time, so for a fixed seed and install mode
// its fingerprint is bit-identical at any LIVE resurrect-worker width —
// the property the 1-vs-8 goldens pin.
func SpanTreeFor(m *core.Machine, fo *core.FailureOutcome, app string, seed int64, lazy bool, workers int) (*spans.Tree, error) {
	if fo == nil || fo.Report == nil {
		return nil, fmt.Errorf("span tree: no resurrection report")
	}
	markResume(m, fo)
	return buildSpanTree(m, fo, spans.Input{App: app, Seed: seed, Lazy: lazy, Workers: workers})
}

// markResume records the resume span mark on the new kernel's flight
// recorder and returns the recorder (nil when tracing is off).
func markResume(m *core.Machine, fo *core.FailureOutcome) *trace.Ring {
	tr := m.Tracer()
	if tr != nil {
		tr.Record(trace.Event{Kind: trace.KindSpanMark, A: trace.SpanMarkResume,
			B: uint64(fo.Report.Succeeded())})
	}
	return tr
}

// buildSpanTree re-parses the new kernel's flight recorder, whose span
// marks the caller has recorded, and builds the recovery's causal span
// tree from in plus the failure outcome's dead ring, report and outage.
func buildSpanTree(m *core.Machine, fo *core.FailureOutcome, in spans.Input) (*spans.Tree, error) {
	if reg := m.TraceRegion(); reg.Frames > 0 {
		if p := trace.Parse(m.HW.Mem, reg); p != nil {
			in.PostEvents = p.Events
		}
	}
	in.DeadTrace = fo.Trace
	in.Report = fo.Report
	in.Interruption = fo.SerialInterruption
	return spans.Build(in)
}
