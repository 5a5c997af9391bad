package metrics

import (
	"strings"
	"testing"

	"otherworld/internal/phys"
)

// segMem builds a small memory with a metrics region at its tail.
func segMem(frames int) (*phys.Mem, phys.Region) {
	m := phys.NewMem((frames + 8) * phys.PageSize)
	return m, phys.Region{Start: 8, Frames: frames}
}

func TestSegmentRoundtrip(t *testing.T) {
	m, reg := segMem(4)
	s := sampleRegistry().Snapshot()
	pages, dropped, err := WriteSegment(m, reg, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if pages != 1 || dropped != 0 {
		t.Fatalf("pages=%d dropped=%d", pages, dropped)
	}
	ps := ParseSegment(m, reg)
	if ps.Valid != 1 || ps.Corrupted != 0 || ps.Empty != 3 {
		t.Fatalf("valid=%d corrupted=%d empty=%d", ps.Valid, ps.Corrupted, ps.Empty)
	}
	if ps.Snapshot.LogicalNowNS != s.LogicalNowNS {
		t.Fatalf("logical now = %d, want %d", ps.Snapshot.LogicalNowNS, s.LogicalNowNS)
	}
	// Help strings are not persisted; compare fingerprints (help-free).
	if ps.Snapshot.Fingerprint() != s.Fingerprint() {
		t.Fatalf("roundtrip changed points:\n%s\nvs\n%s", ps.Snapshot.Fingerprint(), s.Fingerprint())
	}
}

// bigRegistry overflows one page so the segment spans several.
func bigRegistry() *Registry {
	r := NewRegistry()
	r.SetNow(77)
	for i := 0; i < 300; i++ {
		r.Counter("series_total", "", Labels{"idx": strings.Repeat("x", 20) + string(rune('a'+i%26)) + itoa(i)}).Add(int64(i + 1))
	}
	return r
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestSegmentMultiPage(t *testing.T) {
	m, reg := segMem(8)
	s := bigRegistry().Snapshot()
	pages, dropped, err := WriteSegment(m, reg, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if pages < 2 || dropped != 0 {
		t.Fatalf("expected a multi-page segment, got pages=%d dropped=%d", pages, dropped)
	}
	ps := ParseSegment(m, reg)
	if ps.Valid != pages || ps.Corrupted != 0 {
		t.Fatalf("valid=%d corrupted=%d want valid=%d", ps.Valid, ps.Corrupted, pages)
	}
	if ps.Snapshot.Fingerprint() != s.Fingerprint() {
		t.Fatal("multi-page roundtrip changed points")
	}
}

func TestSegmentCorruptionCountedNotFatal(t *testing.T) {
	m, reg := segMem(8)
	s := bigRegistry().Snapshot()
	pages, _, err := WriteSegment(m, reg, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if pages < 3 {
		t.Fatalf("need >=3 pages for this test, got %d", pages)
	}
	// A wild write lands mid-payload on the second page.
	if err := m.WriteAt(phys.FrameAddr(reg.Start+1)+200, []byte("!!!!")); err != nil {
		t.Fatal(err)
	}
	// Another destroys the third page's magic entirely.
	if err := m.WriteAt(phys.FrameAddr(reg.Start+2), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	ps := ParseSegment(m, reg)
	if ps.Corrupted != 2 {
		t.Fatalf("corrupted = %d, want 2", ps.Corrupted)
	}
	if ps.Valid != pages-2 {
		t.Fatalf("valid = %d, want %d", ps.Valid, pages-2)
	}
	if len(ps.Snapshot.Points) == 0 {
		t.Fatal("surviving pages should still yield points")
	}
	// Damage costs exactly the points on the damaged pages.
	if len(ps.Snapshot.Points) >= 300 {
		t.Fatalf("corruption lost nothing? %d points", len(ps.Snapshot.Points))
	}
}

// TestSegmentStaleGenerationFiltered covers a torn re-flush: the new flush
// writes only page 0 and the old page 1 survives. Within one kernel
// generation the older flush stamp filters it; across a reboot the
// generation does.
func TestSegmentStaleGenerationFiltered(t *testing.T) {
	for _, gen := range []uint32{1, 2} {
		m, reg := segMem(4)
		old := NewRegistry()
		old.SetNow(100)
		old.Counter("old_total", "", nil).Add(5)
		if _, _, err := WriteSegment(m, reg, 1, old.Snapshot()); err != nil {
			t.Fatal(err)
		}
		// Craft the torn flush by writing the old segment into pages
		// shifted by one, then the new one at page 0 only.
		oldPage := make([]byte, phys.PageSize)
		if err := m.ReadAt(phys.FrameAddr(reg.Start), oldPage); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteAt(phys.FrameAddr(reg.Start+1), oldPage); err != nil {
			t.Fatal(err)
		}
		fresh := NewRegistry()
		fresh.SetNow(200)
		fresh.Counter("new_total", "", nil).Add(9)
		one := phys.Region{Start: reg.Start, Frames: 1}
		if _, _, err := WriteSegment(m, one, gen, fresh.Snapshot()); err != nil {
			t.Fatal(err)
		}
		ps := ParseSegment(m, reg)
		if ps.Valid != 2 {
			t.Fatalf("gen %d: valid = %d, want 2", gen, ps.Valid)
		}
		if ps.Snapshot.LogicalNowNS != 200 {
			t.Fatalf("gen %d: logical now = %d, want newest flush", gen, ps.Snapshot.LogicalNowNS)
		}
		if ps.Snapshot.Get("old_total", nil) != nil {
			t.Fatalf("gen %d: stale points leaked into the snapshot", gen)
		}
		if p := ps.Snapshot.Get("new_total", nil); p == nil || p.Value != 9 {
			t.Fatalf("gen %d: fresh flush missing: %+v", gen, p)
		}
	}
}

func TestSegmentRegionExhaustionDrops(t *testing.T) {
	m, _ := segMem(8)
	tiny := phys.Region{Start: 8, Frames: 1}
	s := bigRegistry().Snapshot()
	pages, dropped, err := WriteSegment(m, tiny, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if pages != 1 || dropped == 0 {
		t.Fatalf("pages=%d dropped=%d, want 1 page and drops", pages, dropped)
	}
	ps := ParseSegment(m, tiny)
	if ps.Valid != 1 {
		t.Fatalf("valid=%d", ps.Valid)
	}
	if got := len(ps.Snapshot.Points) + dropped; got != len(s.Points) {
		t.Fatalf("kept %d + dropped %d != total %d", len(ps.Snapshot.Points), dropped, len(s.Points))
	}
}

func TestSegmentZeroFrames(t *testing.T) {
	m, _ := segMem(1)
	s := sampleRegistry().Snapshot()
	pages, dropped, err := WriteSegment(m, phys.Region{Start: 8, Frames: 0}, 1, s)
	if err != nil || pages != 0 || dropped != len(s.Points) {
		t.Fatalf("pages=%d dropped=%d err=%v", pages, dropped, err)
	}
}

func TestSegmentProtectedWriteErrors(t *testing.T) {
	m, reg := segMem(2)
	if err := m.Protect(reg.Start, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteSegment(m, reg, 1, sampleRegistry().Snapshot()); err == nil {
		t.Fatal("write into a protected frame must surface the fault")
	}
}

// TestSegmentOverwriteShrinks proves the zero-fill: a second, smaller flush
// must not leave pages of the first one parseable.
func TestSegmentOverwriteShrinks(t *testing.T) {
	m, reg := segMem(8)
	if _, _, err := WriteSegment(m, reg, 1, bigRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	small := NewRegistry()
	small.SetNow(1)
	small.Counter("only_total", "", nil).Inc()
	if _, _, err := WriteSegment(m, reg, 1, small.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ps := ParseSegment(m, reg)
	if ps.Valid != 1 || ps.Corrupted != 0 {
		t.Fatalf("valid=%d corrupted=%d after shrink", ps.Valid, ps.Corrupted)
	}
	// 2 points: only_total plus the always-present conflicts self-metric.
	if len(ps.Snapshot.Points) != 2 || ps.Snapshot.Get("only_total", nil) == nil {
		t.Fatalf("stale points resurrected: %+v", ps.Snapshot.Points)
	}
}

func TestScanSegmentFindsPagesAnywhere(t *testing.T) {
	m, reg := segMem(4)
	s := sampleRegistry().Snapshot()
	if _, _, err := WriteSegment(m, reg, 1, s); err != nil {
		t.Fatal(err)
	}
	ps := ScanSegment(m, m.NumFrames())
	if ps.Valid != 1 || ps.Pages != 1 {
		t.Fatalf("scan: valid=%d pages=%d", ps.Valid, ps.Pages)
	}
	if ps.Snapshot.Fingerprint() != s.Fingerprint() {
		t.Fatal("scan recovered different points")
	}
	// Non-segment noise elsewhere in memory must not confuse the scan.
	if err := m.WriteAt(phys.FrameAddr(2), []byte("unrelated data")); err != nil {
		t.Fatal(err)
	}
	if got := ScanSegment(m, m.NumFrames()); got.Valid != 1 || got.Pages != 1 {
		t.Fatalf("noise counted: valid=%d pages=%d", got.Valid, got.Pages)
	}
}

func TestSegmentOversizeRecordDropped(t *testing.T) {
	m, reg := segMem(2)
	r := NewRegistry()
	r.Counter(strings.Repeat("n", SegPayloadCap), "", nil).Inc() // cannot fit any page
	r.Counter("fits_total", "", nil).Inc()
	pages, dropped, err := WriteSegment(m, reg, 1, r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	ps := ParseSegment(m, reg)
	if ps.Snapshot.Get("fits_total", nil) == nil {
		t.Fatal("fitting point lost alongside the oversize one")
	}
	_ = pages
}
