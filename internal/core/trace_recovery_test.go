package core

import (
	"testing"

	"otherworld/internal/phys"
	"otherworld/internal/trace"
)

// TestTraceRingSurvivesMicroreboot drives a full crash/resurrect cycle and
// checks the flight recorder's whole life: events recorded during normal
// operation, the panic context captured on the way down, the ring parsed
// out of raw memory once, into the failure outcome, and a fresh ring
// attached to the morphed kernel over the other slot.
func TestTraceRingSurvivesMicroreboot(t *testing.T) {
	m := newTestMachine(t, nil)
	if m.Tracer() == nil {
		t.Fatal("no tracer attached at cold boot")
	}
	oldRegion := m.TraceRegion()
	if oldRegion.Frames == 0 {
		t.Fatal("trace region is empty")
	}
	for f := oldRegion.Start; f < oldRegion.End(); f++ {
		if k := m.HW.Mem.Kind(f); k != phys.FrameReserved {
			t.Fatalf("ring frame %d kind = %v, want FrameReserved", f, k)
		}
	}

	if _, err := m.Start("counter", "counter"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	m.Run(100)
	if m.Tracer().Seq() == 0 {
		t.Fatal("no events recorded during normal operation")
	}

	if err := m.K.InjectOops("trace-test failure"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("result = %v (%s)", out.Result, out.Transfer.Reason)
	}

	if out.Trace == nil {
		t.Fatal("FailureOutcome.Trace is nil")
	}
	pe := out.Trace.LastPanic()
	if pe == nil {
		t.Fatalf("no panic event recovered from ring (%d events, %d damaged)",
			len(out.Trace.Events), out.Trace.Damaged)
	}
	if pe.Note != "trace-test failure" {
		t.Fatalf("panic note = %q, want the injected reason", pe.Note)
	}
	if out.Trace.CountKind(trace.KindBoot) == 0 {
		t.Fatal("boot event missing from recovered ring")
	}
	if out.Trace.CountKind(trace.KindSched) == 0 {
		t.Fatal("no scheduler samples recovered")
	}
	if out.Trace.LastOfKind(trace.KindCounters) == nil {
		t.Fatal("no counter snapshot recovered (tracePanic emits one)")
	}

	// The machine's salvage is the only one: the resurrection engine reads
	// no ring byte, and the registry counts one salvage of every event.
	if n, ok := out.Report.Acct.ByCategory["trace"]; ok {
		t.Fatalf("resurrection read %d ring bytes after the machine's salvage", n)
	}
	snap := m.MetricsSnapshot()
	if p := snap.Get("trace_salvages_total", nil); p == nil || p.Value != 1 {
		t.Fatalf("trace_salvages_total = %+v, want 1", p)
	}
	if p := snap.Get("trace_salvaged_events_total", nil); p == nil || p.Value != int64(len(out.Trace.Events)) {
		t.Fatalf("trace_salvaged_events_total = %+v, want %d", p, len(out.Trace.Events))
	}

	// Each resurrected process carries a phase timeline.
	for _, pr := range out.Report.Procs {
		if len(pr.Timeline) == 0 {
			t.Fatalf("pid %d: empty resurrection timeline", pr.Candidate.PID)
		}
		if pr.Timeline[0].Phase.String() != "parse" {
			t.Fatalf("pid %d: timeline starts at %v, want parse", pr.Candidate.PID, pr.Timeline[0].Phase)
		}
	}

	// The morphed kernel has a fresh ring over the other slot.
	newRegion := m.TraceRegion()
	if newRegion == oldRegion {
		t.Fatal("ring did not move to the other slot after the morph")
	}
	if m.Tracer() == nil || m.K.Tracer == nil {
		t.Fatal("no tracer attached to the morphed kernel")
	}
	m.Run(50)
	if m.Tracer().Seq() < 2 {
		t.Fatal("morphed kernel's ring is not recording")
	}
}

// TestTraceRingToleratesCorruption clobbers ring slots before the failure
// and checks that parsing skips and counts them instead of aborting — the
// recorder must survive corruption of its own frames.
func TestTraceRingToleratesCorruption(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.Start("counter", "counter"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	m.Run(200)

	// Corrupt three written slots three different ways: payload flip (CRC
	// mismatch), magic destroyed, and an implausible payload length.
	reg := m.TraceRegion()
	base := phys.FrameAddr(reg.Start)
	written := int(m.Tracer().Seq())
	if written > m.Tracer().Capacity() {
		written = m.Tracer().Capacity()
	}
	if written < 4 {
		t.Fatalf("only %d slots written; test needs at least 4", written)
	}
	clobber := func(slot int, off uint64, b byte) {
		addr := base + uint64(slot)*trace.SlotSize + off
		if err := m.HW.Mem.WriteAt(addr, []byte{b}); err != nil {
			t.Fatalf("clobber slot %d: %v", slot, err)
		}
	}
	clobber(0, 20, 0xFF) // payload byte: CRC failure
	clobber(1, 0, 0x00)  // magic low byte
	clobber(2, 4, 0x7F)  // payload length

	if err := m.K.InjectOops("corrupted-ring failure"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("result = %v (%s)", out.Result, out.Transfer.Reason)
	}
	if out.Trace == nil {
		t.Fatal("FailureOutcome.Trace is nil")
	}
	if out.Trace.Damaged < 3 {
		t.Fatalf("Damaged = %d, want >= 3 (the clobbered slots)", out.Trace.Damaged)
	}
	if len(out.Trace.Events) == 0 {
		t.Fatal("no events survived the corruption")
	}
	// The panic slot was written after the clobbering, so it must survive.
	if pe := out.Trace.LastPanic(); pe == nil || pe.Note != "corrupted-ring failure" {
		t.Fatalf("panic event lost to ring corruption: %v", pe)
	}
}

// TestTraceSalvagedWhenSystemDown: a failure whose transfer never reaches
// the crash kernel still salvages the dead ring into the outcome and counts
// the salvage on the machine's registry.
func TestTraceSalvagedWhenSystemDown(t *testing.T) {
	m := newTestMachine(t, func(o *Options) {
		o.HW.WatchdogEnabled = false
		o.Hardening.WatchdogNMI = false
	})
	if _, err := m.Start("counter", "counter"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	m.Run(50)
	m.K.RaiseHangForTest()
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultSystemDown {
		t.Fatalf("result = %v, want system-down", out.Result)
	}
	if out.Trace == nil || len(out.Trace.Events) == 0 {
		t.Fatalf("no ring salvaged on a system-down failure: %+v", out.Trace)
	}
	snap := m.MetricsSnapshot()
	if p := snap.Get("trace_salvages_total", nil); p == nil || p.Value != 1 {
		t.Fatalf("trace_salvages_total = %+v, want 1", p)
	}
	if p := snap.Get("trace_salvaged_events_total", nil); p == nil || p.Value != int64(len(out.Trace.Events)) {
		t.Fatalf("trace_salvaged_events_total = %+v, want %d", p, len(out.Trace.Events))
	}
}

// TestTraceDisabled checks the zero-ring configuration: no region carved,
// nil tracer everywhere, and failure handling unaffected.
func TestTraceDisabled(t *testing.T) {
	m := newTestMachine(t, func(o *Options) { o.TraceEvents = 0 })
	if m.Tracer() != nil {
		t.Fatal("tracer attached with TraceEvents=0")
	}
	if reg := m.TraceRegion(); reg.Frames != 0 {
		t.Fatalf("trace region %v, want empty", reg)
	}
	if _, err := m.Start("counter", "counter"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	m.Run(100)
	if err := m.K.InjectOops("no-trace failure"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("result = %v (%s)", out.Result, out.Transfer.Reason)
	}
	if out.Trace != nil {
		t.Fatal("FailureOutcome.Trace set with tracing disabled")
	}
}

// TestTraceRingSurvivesColdReboot checks that a cold reboot re-establishes
// the recorder on the freshly booted kernel.
func TestTraceRingSurvivesColdReboot(t *testing.T) {
	m := newTestMachine(t, nil)
	if err := m.ColdReboot(); err != nil {
		t.Fatalf("ColdReboot: %v", err)
	}
	if m.Tracer() == nil || m.K.Tracer == nil {
		t.Fatal("no tracer after cold reboot")
	}
	if m.Tracer().Seq() == 0 {
		t.Fatal("boot event missing after cold reboot")
	}
}
