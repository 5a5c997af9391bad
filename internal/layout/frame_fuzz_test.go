package layout_test

import (
	"bytes"
	"reflect"
	"testing"

	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/trace"
)

// fuzzRegion is the crash-tail region the fuzz target fills: two frames,
// so the ring has 64 slots, the segment two pages and the index 32 slots.
var fuzzRegion = phys.Region{Start: 1, Frames: 2}

const fuzzRegionBytes = 2 * phys.PageSize

// tailImage renders one plane's real region bytes with write.
func tailImage(f *testing.F, write func(mem *phys.Mem) error) []byte {
	mem := phys.NewMem(fuzzRegion.End() * phys.PageSize)
	if err := write(mem); err != nil {
		f.Fatal(err)
	}
	img := make([]byte, fuzzRegionBytes)
	if err := mem.ReadAt(phys.FrameAddr(fuzzRegion.Start), img); err != nil {
		f.Fatal(err)
	}
	return img
}

// FuzzFrameSalvage drives arbitrary crash-tail bytes through the shared
// salvage iterator and through every plane decoder built on it:
// trace.Parse, metrics.ParseSegment and layout.ParseIndex. The tail lives in
// the dead kernel's raw memory, so wild writes land on it like on anything
// else; every decoder must stay total. Properties: every frame is
// accounted for as empty, damaged, stale or valid; every CRC-checked valid
// frame re-seals to its own bytes; and parsing twice gives the same
// result. Corpus: a real ring, segment and index image, plus the
// truncation and garbage shapes of the earlier trace-only target.
func FuzzFrameSalvage(f *testing.F) {
	ring := tailImage(f, func(mem *phys.Mem) error {
		r := trace.NewRing(mem, fuzzRegion, 3)
		for _, ev := range []trace.Event{
			{Kind: trace.KindBoot, A: 1},
			{Kind: trace.KindSched, PID: 7, PC: 41, A: 100},
			{Kind: trace.KindCounters, A: 9, B: trace.PackCounters(3, 4)},
			{Kind: trace.KindPanic, CPU: 1, PID: 7, PC: 42, Note: "kernel wedged"},
			{Kind: trace.KindResurrect, PID: 7, A: 4, B: 16384, Note: "page-copy"},
		} {
			r.Record(ev)
		}
		return nil
	})
	segment := tailImage(f, func(mem *phys.Mem) error {
		reg := metrics.NewRegistry()
		reg.SetNow(77)
		reg.Counter("phys_read_ops_total", "", nil).Add(12)
		reg.Gauge("campaign_pool_occupancy", "", metrics.Labels{"workers": "4"}).Set(0.5)
		_, _, err := metrics.WriteSegment(mem, fuzzRegion, 3, reg.Snapshot())
		return err
	})
	index := tailImage(f, func(mem *phys.Mem) error {
		w, err := layout.NewIndexWriter(mem, phys.FrameAddr(fuzzRegion.Start), fuzzRegionBytes/layout.IndexSlotSize, 3)
		if err != nil {
			return err
		}
		for pid := uint32(1); pid <= 4; pid++ {
			if err := w.Put(pid, 0x1000*uint64(pid), "mysqld", "mysqld", "mysql-crash"); err != nil {
				return err
			}
		}
		return w.Delete(2)
	})
	for _, seed := range [][]byte{ring, segment, index, make([]byte, phys.PageSize), {0x74, 0x0D, 1, 0}, ring[:40]} {
		f.Add(seed, true)
	}
	f.Add(index, false)

	base := phys.FrameAddr(fuzzRegion.Start)
	spans := []layout.Span{
		{Base: base, Count: trace.CapacityOf(fuzzRegion), Size: trace.SlotSize, Kind: layout.KindTrace},
		{Base: base, Count: fuzzRegion.Frames, Size: phys.PageSize, Kind: layout.KindMetrics},
		{Base: base, Count: 1, Size: layout.IndexSlotSize, Kind: layout.KindIndexHeader, Sparse: true},
		{Base: base + layout.IndexSlotSize, Count: fuzzRegionBytes/layout.IndexSlotSize - 1,
			Size: layout.IndexSlotSize, Kind: layout.KindIndexEntry, Sparse: true, Gen: 3},
	}
	f.Fuzz(func(t *testing.T, data []byte, verifyCRC bool) {
		mem := phys.NewMem(fuzzRegion.End() * phys.PageSize)
		if err := mem.WriteAt(base, data[:min(len(data), fuzzRegionBytes)]); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, fuzzRegionBytes)
		if err := mem.ReadAt(base, raw); err != nil {
			t.Fatal(err)
		}

		keep := func(fr layout.Frame) (layout.Frame, bool) {
			fr.Payload = append([]byte(nil), fr.Payload...)
			return fr, true
		}
		for _, span := range spans {
			frames, s := layout.SalvageFrames(mem, span, verifyCRC, keep)
			if got := s.Empty + s.Damaged + s.Stale + s.Valid; got != span.Count || s.Valid != len(frames) {
				t.Fatalf("kind %d: %+v does not account for %d frames (%d returned)", span.Kind, s, span.Count, len(frames))
			}
			for _, fr := range frames {
				if !verifyCRC {
					break
				}
				off := int(fr.Addr - base)
				n := layout.FrameOverhead + len(fr.Payload)
				img := make([]byte, span.Size)
				layout.SealFrameInto(img, fr.Kind, fr.Flags, fr.Gen, fr.Payload)
				if !bytes.Equal(img[:n], raw[off:off+n]) {
					t.Fatalf("kind %d frame at %#x does not re-seal to its own bytes", span.Kind, fr.Addr)
				}
			}
			again, s2 := layout.SalvageFrames(mem, span, verifyCRC, keep)
			if s != s2 || !reflect.DeepEqual(frames, again) {
				t.Fatalf("kind %d: salvage is not deterministic over the same memory", span.Kind)
			}
		}

		p := trace.Parse(mem, fuzzRegion)
		if got := len(p.Events) + p.Damaged + p.Empty; got != p.Capacity {
			t.Fatalf("slots unaccounted: %d events + %d damaged + %d empty != capacity %d",
				len(p.Events), p.Damaged, p.Empty, p.Capacity)
		}
		for i := 1; i < len(p.Events); i++ {
			if p.Events[i].Seq < p.Events[i-1].Seq {
				t.Fatalf("events not sorted by Seq at %d", i)
			}
		}
		if q := trace.Parse(mem, fuzzRegion); !reflect.DeepEqual(p, q) {
			t.Fatal("trace.Parse is not deterministic over the same memory")
		}

		ps := metrics.ParseSegment(mem, fuzzRegion)
		if ps.Pages+ps.Empty != fuzzRegion.Frames || ps.Valid+ps.Corrupted != ps.Pages {
			t.Fatalf("pages unaccounted: %+v", ps)
		}
		qs := metrics.ParseSegment(mem, fuzzRegion)
		if qs.Pages != ps.Pages || qs.Valid != ps.Valid || qs.Corrupted != ps.Corrupted ||
			qs.Snapshot.LogicalNowNS != ps.Snapshot.LogicalNowNS || qs.Snapshot.Fingerprint() != ps.Snapshot.Fingerprint() {
			t.Fatal("metrics.ParseSegment is not deterministic over the same memory")
		}

		sal, err := layout.ParseIndex(mem, base, fuzzRegionBytes, verifyCRC)
		if err == nil && len(sal.Entries)+sal.Skipped > int(sal.Header.Slots)-1 {
			t.Fatalf("index salvaged %d entries + %d skipped from %d entry slots",
				len(sal.Entries), sal.Skipped, sal.Header.Slots-1)
		}
		sal2, err2 := layout.ParseIndex(mem, base, fuzzRegionBytes, verifyCRC)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(sal, sal2) {
			t.Fatal("layout.ParseIndex is not deterministic over the same memory")
		}
	})
}
