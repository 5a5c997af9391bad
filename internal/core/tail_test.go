package core

import (
	"fmt"
	"testing"

	"otherworld/internal/phys"
)

// TestCrashSlotTailLayout pins the tail table with every plane on: the
// active slot runs image | ring | index | metrics contiguously up to the
// slot's end, and every tail frame is unprotected and FrameReserved — after
// cold boot, after two microreboots (so both slots carry the tail) and
// after a cold reboot. Tools that replay the planes' decoders on a dead
// image derive the metrics region from this order.
func TestCrashSlotTailLayout(t *testing.T) {
	m := newTestMachine(t, func(o *Options) { o.CandidateIndexSlots = 64 })
	check := func(when string) {
		t.Helper()
		slot := m.slots[m.imageSlot]
		img := m.imageRegion(slot)
		ring, idx, seg := m.TraceRegion(), m.IndexRegion(), m.MetricsRegion()
		if ring.Frames == 0 || idx.Frames == 0 || seg.Frames == 0 {
			t.Fatalf("%s: a plane is off: ring %v index %v metrics %v", when, ring, idx, seg)
		}
		if img.Start != slot.Start || ring.Start != img.End() || idx.Start != ring.End() ||
			seg.Start != idx.End() || seg.End() != slot.End() {
			t.Fatalf("%s: slot %v is not image %v | ring %v | index %v | metrics %v",
				when, slot, img, ring, idx, seg)
		}
		if !m.HW.Mem.Protected(img.Start) || m.HW.Mem.Kind(img.Start) != phys.FrameCrashImage {
			t.Fatalf("%s: crash image frame %d is not a protected image frame", when, img.Start)
		}
		for f := ring.Start; f < slot.End(); f++ {
			if m.HW.Mem.Protected(f) || m.HW.Mem.Kind(f) != phys.FrameReserved {
				t.Fatalf("%s: tail frame %d protected=%v kind=%v, want unprotected FrameReserved",
					when, f, m.HW.Mem.Protected(f), m.HW.Mem.Kind(f))
			}
		}
	}
	check("NewMachine")
	if _, err := m.Start("counter", "counter"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	slotsUsed := map[int]bool{m.imageSlot: true}
	for i := 1; i <= 2; i++ {
		m.Run(100)
		if err := m.K.InjectOops("tail-layout failure"); err == nil {
			t.Fatal("InjectOops returned nil")
		}
		out, err := m.HandleFailure()
		if err != nil || out.Result != ResultRecovered {
			t.Fatalf("HandleFailure #%d: %v %+v", i, err, out)
		}
		check(fmt.Sprintf("HandleFailure #%d", i))
		slotsUsed[m.imageSlot] = true
	}
	if len(slotsUsed) != 2 {
		t.Fatalf("crash slots did not alternate: used %v", slotsUsed)
	}
	if err := m.ColdReboot(); err != nil {
		t.Fatalf("ColdReboot: %v", err)
	}
	check("ColdReboot")
}
