package trace

import (
	"fmt"
	"strings"
	"testing"

	"otherworld/internal/metrics"
	"otherworld/internal/phys"
)

func newTestRing(t *testing.T, frames int) (*phys.Mem, *Ring) {
	t.Helper()
	mem := phys.NewMem((frames + 2) * phys.PageSize)
	r := NewRing(mem, phys.Region{Start: 1, Frames: frames}, 1)
	if r == nil {
		t.Fatal("NewRing returned nil for a non-empty region")
	}
	return mem, r
}

func TestRoundTrip(t *testing.T) {
	mem, r := newTestRing(t, 1)
	events := []Event{
		{Kind: KindBoot, A: 3},
		{Kind: KindSched, PID: 7, PC: 41, A: 100},
		{Kind: KindFaultInject, PID: 2, A: 1, B: 0xdeadbeef},
		{Kind: KindPanic, CPU: 1, PID: 7, PC: 42, Note: "kernel wedged in ipc path"},
	}
	for _, ev := range events {
		r.Record(ev)
	}
	p := Parse(mem, r.Region())
	if len(p.Events) != len(events) {
		t.Fatalf("parsed %d events, wrote %d", len(p.Events), len(events))
	}
	if p.Damaged != 0 {
		t.Fatalf("damaged = %d on a clean ring", p.Damaged)
	}
	for i, ev := range p.Events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		want := events[i]
		if ev.Kind != want.Kind || ev.PID != want.PID || ev.PC != want.PC ||
			ev.A != want.A || ev.B != want.B || ev.CPU != want.CPU || ev.Note != want.Note {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	lp := p.LastPanic()
	if lp == nil || !strings.Contains(lp.Note, "wedged") {
		t.Fatalf("LastPanic = %+v", lp)
	}
	if p.Empty != p.Capacity-len(events) {
		t.Fatalf("empty = %d, capacity = %d", p.Empty, p.Capacity)
	}
}

func TestWrapKeepsNewestEvents(t *testing.T) {
	mem, r := newTestRing(t, 1)
	n := r.Capacity()*2 + 5
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: KindSched, PID: uint32(i)})
	}
	p := Parse(mem, r.Region())
	if len(p.Events) != r.Capacity() {
		t.Fatalf("parsed %d events, capacity %d", len(p.Events), r.Capacity())
	}
	// The survivors must be exactly the newest Capacity events, in order.
	for i, ev := range p.Events {
		wantSeq := uint64(n - r.Capacity() + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
	}
}

// TestParseSkipsDamagedSlots is the recorder's core property: corruption of
// the ring's own frames is skipped and counted, never a parse abort.
func TestParseSkipsDamagedSlots(t *testing.T) {
	mem, r := newTestRing(t, 1)
	for i := 0; i < r.Capacity(); i++ {
		r.Record(Event{Kind: KindSched, PID: uint32(i), Note: fmt.Sprintf("ev%d", i)})
	}
	base := phys.FrameAddr(r.Region().Start)
	// Clobber slot 3's payload (CRC mismatch), slot 5's magic, and slot
	// 7's length field (implausible payload).
	corrupt := map[int][]byte{
		3: {0xff, 0xfe, 0xfd},
		5: {0x00, 0x00},
		7: {0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0x7f},
	}
	damagedOffsets := map[int]uint64{3: 20, 5: 0, 7: 0}
	for slot, junk := range corrupt {
		addr := base + uint64(slot*SlotSize) + damagedOffsets[slot]
		if err := mem.WriteAt(addr, junk); err != nil {
			t.Fatalf("corrupt slot %d: %v", slot, err)
		}
	}
	p := Parse(mem, r.Region())
	if p.Damaged != len(corrupt) {
		t.Fatalf("damaged = %d, want %d", p.Damaged, len(corrupt))
	}
	if len(p.Events) != r.Capacity()-len(corrupt) {
		t.Fatalf("events = %d, want %d", len(p.Events), r.Capacity()-len(corrupt))
	}
	// Survivors stay intact and ordered.
	last := int64(-1)
	for _, ev := range p.Events {
		if int64(ev.Seq) <= last {
			t.Fatalf("events out of order: %d after %d", ev.Seq, last)
		}
		last = int64(ev.Seq)
	}
	// The corruption skip count must surface through the metrics plane,
	// not evaporate once the salvage pass is done.
	reg := metrics.NewRegistry()
	p.CollectInto(reg)
	s := reg.Snapshot()
	if got := s.Get("trace_salvaged_damaged_total", nil); got == nil || got.Value != int64(len(corrupt)) {
		t.Fatalf("trace_salvaged_damaged_total = %+v, want %d", got, len(corrupt))
	}
	if got := s.Get("trace_salvaged_events_total", nil); got == nil || got.Value != int64(len(p.Events)) {
		t.Fatalf("trace_salvaged_events_total = %+v, want %d", got, len(p.Events))
	}
	if got := s.Get("trace_salvages_total", nil); got == nil || got.Value != 1 {
		t.Fatalf("trace_salvages_total = %+v, want 1", got)
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Record(Event{Kind: KindPanic}) // must not panic
	r.Reset()
	if r.Capacity() != 0 || r.Seq() != 0 {
		t.Fatal("nil ring reported non-zero state")
	}
	if got := NewRing(phys.NewMem(phys.PageSize), phys.Region{}, 1); got != nil {
		t.Fatal("empty region should yield nil ring")
	}
}

func TestResetClearsRing(t *testing.T) {
	mem, r := newTestRing(t, 1)
	r.Record(Event{Kind: KindBoot})
	r.Record(Event{Kind: KindPanic, Note: "x"})
	r.Reset()
	if r.Seq() != 0 {
		t.Fatalf("seq after reset = %d", r.Seq())
	}
	p := Parse(mem, r.Region())
	if len(p.Events) != 0 || p.Damaged != 0 || p.Empty != p.Capacity {
		t.Fatalf("after reset: %+v", p)
	}
}

func TestNoteTruncation(t *testing.T) {
	mem, r := newTestRing(t, 1)
	long := strings.Repeat("x", 500)
	r.Record(Event{Kind: KindPanic, Note: long})
	p := Parse(mem, r.Region())
	if len(p.Events) != 1 {
		t.Fatalf("events = %d", len(p.Events))
	}
	if got := p.Events[0].Note; got != long[:MaxNote] {
		t.Fatalf("note = %q (len %d)", got, len(got))
	}
}

func TestPanicPacking(t *testing.T) {
	a, b := PackPanic(2, 5, true, 17)
	pk, ok, insys, no := UnpackPanic(a, b)
	if pk != 2 || ok != 5 || !insys || no != 17 {
		t.Fatalf("unpack = %d %d %v %d", pk, ok, insys, no)
	}
	a, b = PackPanic(0, 0, false, 0)
	pk, ok, insys, no = UnpackPanic(a, b)
	if pk != 0 || ok != 0 || insys || no != 0 {
		t.Fatal("zero round-trip failed")
	}
	pf, si := UnpackCounters(PackCounters(123456, 789))
	if pf != 123456 || si != 789 {
		t.Fatalf("counters round-trip = %d %d", pf, si)
	}
}

func TestFramesFor(t *testing.T) {
	if FramesFor(0) != 0 {
		t.Fatal("FramesFor(0) != 0")
	}
	perFrame := phys.PageSize / SlotSize
	if got := FramesFor(perFrame); got != 1 {
		t.Fatalf("FramesFor(%d) = %d", perFrame, got)
	}
	if got := FramesFor(perFrame + 1); got != 2 {
		t.Fatalf("FramesFor(%d) = %d", perFrame+1, got)
	}
}

// TestRecordAllocatesOnlyTheSlotImage keeps the recorder's hot path lean:
// sealing an event costs one allocation, the slot image itself.
func TestRecordAllocatesOnlyTheSlotImage(t *testing.T) {
	_, r := newTestRing(t, 1)
	ev := Event{Kind: KindSched, PID: 7, PC: 41, Note: "sched"}
	if n := testing.AllocsPerRun(100, func() { r.Record(ev) }); n > 1 {
		t.Fatalf("Record allocates %v times per event, want at most 1", n)
	}
}
