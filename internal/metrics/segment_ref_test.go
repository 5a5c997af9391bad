package metrics

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// referenceEncodePoint is the record encoder WriteSegment used before it
// appended records into one payload: a fresh buffer per point, or nil for a
// point that cannot fit a page.
func referenceEncodePoint(p Point) []byte {
	pairs := canonLabels(p.Labels)
	if len(p.Name) > math.MaxUint16 || len(pairs) > math.MaxUint8 {
		return nil
	}
	var kind Kind
	switch p.Kind {
	case "counter":
		kind = KindCounter
	case "gauge":
		kind = KindGauge
	case "histogram":
		kind = KindHistogram
	default:
		return nil
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Name)))
	buf = append(buf, p.Name...)
	buf = append(buf, byte(len(pairs)))
	for _, lp := range pairs {
		if len(lp.k) > math.MaxUint16 || len(lp.v) > math.MaxUint16 {
			return nil
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(lp.k)))
		buf = append(buf, lp.k...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(lp.v)))
		buf = append(buf, lp.v...)
	}
	switch kind {
	case KindCounter:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Value))
	case KindGauge:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Gauge))
	case KindHistogram:
		if len(p.Buckets) > math.MaxUint16 {
			return nil
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Sum))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Overflow))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Buckets)))
		for _, bk := range p.Buckets {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(bk.Le))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(bk.Count))
		}
	}
	if len(buf) > SegPayloadCap {
		return nil
	}
	return buf
}

// referenceWriteSegment is WriteSegment as it was before: each point
// encoded into its own buffer, each page sealed into a fresh image by
// layout.SealFrameInto, and the trailing pages written from a fresh zero
// page.
func referenceWriteSegment(mem MemoryWriter, region phys.Region, gen uint32, s *Snapshot) (pages, dropped int, err error) {
	if region.Frames <= 0 {
		if s != nil {
			dropped = len(s.Points)
		}
		return 0, dropped, nil
	}
	payload := binary.LittleEndian.AppendUint64(nil, uint64(s.LogicalNowNS))
	flush := func() error {
		if pages >= region.Frames {
			return nil
		}
		img := make([]byte, phys.PageSize)
		layout.SealFrameInto(img, layout.KindMetrics, 0, gen, payload)
		if werr := mem.WriteAt(phys.FrameAddr(region.Start+pages), img); werr != nil {
			return werr
		}
		pages++
		payload = payload[:stampSize]
		return nil
	}
	for _, p := range s.Points {
		rec := referenceEncodePoint(p)
		if rec == nil {
			dropped++
			continue
		}
		if len(payload)-stampSize+len(rec) > SegPayloadCap {
			if pages == region.Frames-1 {
				dropped++
				continue
			}
			if err = flush(); err != nil {
				return pages, dropped, err
			}
		}
		payload = append(payload, rec...)
	}
	if len(payload) > stampSize || pages == 0 {
		if err = flush(); err != nil {
			return pages, dropped, err
		}
	}
	zero := make([]byte, phys.PageSize)
	for f := region.Start + pages; f < region.End(); f++ {
		if werr := mem.WriteAt(phys.FrameAddr(f), zero); werr != nil {
			return pages, dropped, werr
		}
	}
	return pages, dropped, nil
}

// writeLog is a MemoryWriter that records every call, copying the bytes,
// and fails the call numbered failAt (counting from 1; 0 never fails).
type writeLog struct {
	calls  []string
	failAt int
}

var errInjected = errors.New("injected write error")

func (w *writeLog) WriteAt(addr uint64, buf []byte) error {
	w.calls = append(w.calls, fmt.Sprintf("%#x %x", addr, buf))
	if len(w.calls) == w.failAt {
		return errInjected
	}
	return nil
}

// randomSnapshot draws a snapshot with n points: counters, gauges and
// histograms with 0–3 labels, some histograms too large for a page, some
// points of an unknown kind and some names past the record's length field.
func randomSnapshot(rng *rand.Rand, n int) *Snapshot {
	s := &Snapshot{Schema: SchemaVersion, LogicalNowNS: rng.Int63()}
	word := func(n int) string { return strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(n)) }
	for i := 0; i < n; i++ {
		p := Point{Name: word(40) + itoa(i)}
		if nl := rng.Intn(4); nl > 0 {
			p.Labels = Labels{}
			for j := 0; j < nl; j++ {
				p.Labels[word(12)] = word(30)
			}
		}
		switch r := rng.Intn(40); {
		case r < 16:
			p.Kind, p.Value = "counter", rng.Int63()
		case r < 26:
			p.Kind, p.Gauge = "gauge", rng.NormFloat64()
		case r < 37:
			p.Kind, p.Sum, p.Count, p.Overflow = "histogram", rng.Int63(), rng.Int63(), rng.Int63()
			nb := rng.Intn(20)
			if rng.Intn(8) == 0 {
				nb = 250 + rng.Intn(50) // 4 KiB of buckets: more than a page
			}
			for b := 0; b < nb; b++ {
				p.Buckets = append(p.Buckets, Bucket{Le: rng.Int63(), Count: rng.Int63()})
			}
		case r < 38:
			p.Kind = "summary"
		case r < 39:
			p.Kind, p.Name = "counter", strings.Repeat("n", math.MaxUint16+1)
		default:
			p.Kind, p.Labels = "gauge", Labels{"k": strings.Repeat("v", math.MaxUint16+1)}
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// TestWriteSegmentMatchesReference runs WriteSegment and the reference on
// the same snapshots and regions and requires the same WriteAt calls, with
// the same bytes, and the same results: a one-page flush, a multi-page one,
// oversized and unencodable points that drop, regions that run out of
// pages, no region at all, write errors at every call, and flushes of
// shrinking size one after the other, so that bytes left in a reused buffer
// by an earlier point, page or flush would show.
func TestWriteSegmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type flush struct {
		name  string
		snap  *Snapshot
		start int
		pages int
	}
	flushes := []flush{
		{"sample", sampleRegistry().Snapshot(), 8, 4},
		{"big", bigRegistry().Snapshot(), 8, 8},
		{"big-short-region", bigRegistry().Snapshot(), 3, 2},
		{"big-one-page", bigRegistry().Snapshot(), 0, 1},
		{"no-region", sampleRegistry().Snapshot(), 5, 0},
		{"empty", &Snapshot{LogicalNowNS: 9}, 2, 3},
	}
	for i := 0; i < 40; i++ {
		flushes = append(flushes, flush{
			fmt.Sprintf("seeded-%d", i), randomSnapshot(rng, rng.Intn(120)), rng.Intn(4), rng.Intn(7),
		})
	}
	type result struct {
		pages, dropped int
		err            error
	}
	run := func(write func(MemoryWriter, phys.Region, uint32, *Snapshot) (int, int, error), fl []flush, failAt int) ([]string, []result) {
		log := &writeLog{failAt: failAt}
		var res []result
		for i, f := range fl {
			p, d, err := write(log, phys.Region{Start: f.start, Frames: f.pages}, uint32(i+1), f.snap)
			res = append(res, result{p, d, err})
		}
		return log.calls, res
	}
	compare := func(name string, fl []flush, failAt int) {
		t.Helper()
		got, gotRes := run(WriteSegment, fl, failAt)
		want, wantRes := run(referenceWriteSegment, fl, failAt)
		if fmt.Sprint(gotRes) != fmt.Sprint(wantRes) {
			t.Fatalf("%s: results %v, want %v", name, gotRes, wantRes)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d WriteAt calls, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: WriteAt call %d differs:\ngot  %.200s…\nwant %.200s…", name, i, got[i], want[i])
			}
		}
	}
	for _, f := range flushes {
		compare(f.name, []flush{f}, 0)
	}
	// A long flush followed by shorter ones over the same region.
	compare("shrinking", []flush{flushes[1], flushes[0], flushes[5]}, 0)
	compare("all", flushes, 0)
	for failAt := 1; failAt <= 9; failAt++ {
		compare(fmt.Sprintf("big-fail-%d", failAt), []flush{flushes[1]}, failAt)
	}
}

// TestWriteSegmentAllocations bounds a multi-page flush of labelled series
// to three allocations, however many points and pages it writes.
func TestWriteSegmentAllocations(t *testing.T) {
	m, reg := segMem(8)
	s := bigRegistry().Snapshot()
	if pages, _, err := WriteSegment(m, reg, 1, s); err != nil || pages < 2 {
		t.Fatalf("pages %d, err %v; want a multi-page flush", pages, err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := WriteSegment(m, reg, 1, s); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("WriteSegment allocates %v times per call, want at most 3", n)
	}
}

// BenchmarkWriteSegment times one multi-page flush of labelled series into
// an eight-page region.
func BenchmarkWriteSegment(b *testing.B) {
	m, reg := segMem(8)
	s := bigRegistry().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := WriteSegment(m, reg, 1, s); err != nil {
			b.Fatal(err)
		}
	}
}

// randomRegistry draws a registry of about n series: counters, gauges and
// histograms with 0–3 labels, names shared between series, some
// histograms with more buckets than a page holds, a name past the record's
// length field, and registrations the registry refuses over a kind or
// bound conflict.
func randomRegistry(rng *rand.Rand, n int) *Registry {
	r := NewRegistry()
	r.SetNow(rng.Int63())
	for i := 0; i < n; i++ {
		addRandomSeries(rng, r)
	}
	return r
}

// addRandomSeries registers or fetches one seeded series of r and writes it.
func addRandomSeries(rng *rand.Rand, r *Registry) {
	word := func(n int) string { return strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(n)) }
	name := word(3)
	if rng.Intn(3) == 0 {
		name = word(30) + itoa(rng.Intn(1000))
	}
	var ls Labels
	if nl := rng.Intn(4); nl > 0 {
		ls = Labels{}
		for j := 0; j < nl; j++ {
			ls[word(3)] = word(20)
		}
	}
	switch k := rng.Intn(40); {
	case k < 16:
		r.Counter(name+"_total", "", ls).Add(rng.Int63n(1 << 40))
	case k < 26:
		r.Gauge(name, "", ls).Set(rng.NormFloat64())
	case k < 38:
		nb := rng.Intn(6)
		if rng.Intn(10) == 0 {
			nb = 250 + rng.Intn(50) // 4 KiB of buckets: more than a page
		}
		bounds := make([]int64, nb)
		for b := range bounds {
			bounds[b] = int64(1 + rng.Intn(3*nb+1)) // unsorted, with repeats
		}
		h := r.Histogram(name+"_ns", "", bounds, ls)
		for o := rng.Intn(4); o > 0; o-- {
			h.Observe(rng.Int63n(int64(4*nb + 2)))
		}
	case k < 39:
		r.Counter(strings.Repeat("n", math.MaxUint16+1), "", nil).Inc()
	default:
		// The same series as another kind: refused and counted.
		r.Counter(name, "", ls).Inc()
		r.Gauge(name, "", ls).Set(1)
	}
}

// TestRegistryWriteSegmentMatchesSnapshot holds the direct flush to
// WriteSegment of the registry's snapshot: on seeded registries with
// labels, histograms and refused registrations, into regions that hold
// them, that are too small for their points, of one page or of none, and
// with a protected page in the way, both must write the same pages, leave
// the same phys Stats and return the same results. Each registry flushes
// several times and changes between flushes, so bytes a reused buffer kept
// from an earlier flush would show.
func TestRegistryWriteSegmentMatchesSnapshot(t *testing.T) {
	const frames = 12
	rng := rand.New(rand.NewSource(29))
	var drops, failures, multiPage, conflicts int
	for i := 0; i < 40; i++ {
		r := randomRegistry(rng, rng.Intn(160))
		direct, viaSnapshot := phys.NewMem(frames*phys.PageSize), phys.NewMem(frames*phys.PageSize)
		for flush := 0; flush < 4; flush++ {
			region := phys.Region{Start: 1 + rng.Intn(3), Frames: rng.Intn(9)}
			protected := -1
			if rng.Intn(5) == 0 && region.Frames > 0 {
				protected = region.Start + rng.Intn(region.Frames)
			}
			for _, m := range []*phys.Mem{direct, viaSnapshot} {
				if err := m.Protect(max(protected, 0), protected >= 0); err != nil {
					t.Fatal(err)
				}
			}
			gen := uint32(1 + rng.Intn(3))
			wp, wd, werr := WriteSegment(viaSnapshot, region, gen, r.Snapshot())
			gp, gd, gerr := r.WriteSegment(direct, region, gen)
			if gp != wp || gd != wd || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("registry %d flush %d: got (%d, %d, %v), snapshot flush (%d, %d, %v)",
					i, flush, gp, gd, gerr, wp, wd, werr)
			}
			drops += min(wd, 1)
			multiPage += min(max(wp-1, 0), 1)
			if werr != nil {
				failures++
			}
			if got, want := direct.Stats(), viaSnapshot.Stats(); got != want {
				t.Fatalf("registry %d flush %d: stats %+v, snapshot flush %+v", i, flush, got, want)
			}
			got, want := make([]byte, phys.PageSize), make([]byte, phys.PageSize)
			for f := 0; f < frames; f++ {
				if err := direct.CopyFrame(f, 0, got); err != nil {
					t.Fatal(err)
				}
				if err := viaSnapshot.CopyFrame(f, 0, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("registry %d flush %d: frame %d differs from the snapshot flush's", i, flush, f)
				}
			}
			for n := rng.Intn(20); n > 0; n-- {
				addRandomSeries(rng, r)
			}
			r.SetNow(rng.Int63())
		}
		conflicts += min(int(r.Conflicts()), 1)
	}
	// Every case must be well represented for the comparison to mean
	// anything.
	if drops < 10 || failures < 5 || multiPage < 10 || conflicts < 10 {
		t.Fatalf("flushes with drops %d, with a write error %d, of several pages %d; registries with conflicts %d",
			drops, failures, multiPage, conflicts)
	}
	t.Logf("160 flushes: %d with drops, %d with a write error, %d of several pages; %d of 40 registries with conflicts",
		drops, failures, multiPage, conflicts)
}

// TestRegistryLookupsAllocateNothing requires a lookup of an existing
// series, the path an instrumented hot loop takes on every write, to
// allocate nothing: labelled and unlabelled, and a histogram whose bounds
// arrive sorted or not.
func TestRegistryLookupsAllocateNothing(t *testing.T) {
	r := NewRegistry()
	ls := Labels{"phase": "page-copy", "stage": "install"}
	sorted, unsorted := []int64{10, 100, 1000}, []int64{1000, 10, 100, 10}
	for name, lookup := range map[string]func(){
		"counter":          func() { r.Counter("ops_total", "", ls).Inc() },
		"unlabelled gauge": func() { r.Gauge("level", "", nil).Set(2) },
		"histogram":        func() { r.Histogram("lat_ns", "", sorted, ls).Observe(50) },
		"unsorted bounds":  func() { r.Histogram("lat_ns", "", unsorted, ls).Observe(50) },
	} {
		lookup() // registers the series
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s: a lookup of an existing series allocates %v times", name, n)
		}
	}
	// Each lookup ran once to register and 101 times in AllocsPerRun.
	s := r.Snapshot()
	if r.Conflicts() != 0 || s.Get("ops_total", ls).Value != 102 || s.Get("lat_ns", ls).Count != 204 {
		t.Fatalf("lookups did not reach the registered series: conflicts %d, points %+v", r.Conflicts(), s.Points)
	}
}

// referenceSortPoints is sortPoints as it was: a comparison sort that
// rebuilt both points' label strings in every comparison.
func referenceSortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Name != pts[j].Name {
			return pts[i].Name < pts[j].Name
		}
		return labelSuffix(canonLabels(pts[i].Labels)) < labelSuffix(canonLabels(pts[j].Labels))
	})
}

// TestSortPointsMatchesReference holds sortPoints, which builds each
// point's label string once, to referenceSortPoints on seeded point sets
// with shared names, shared label sets and duplicate points: the orders
// must be identical, ties included, since a torn re-flush can leave one
// series twice in a salvaged segment.
func TestSortPointsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		pts := make([]Point, rng.Intn(80))
		for j := range pts {
			pts[j] = Point{Name: itoa(rng.Intn(4)), Kind: "counter", Value: int64(j)}
			if rng.Intn(3) > 0 {
				pts[j].Labels = Labels{"a": itoa(rng.Intn(3)), itoa(rng.Intn(2)): "v"}
			}
		}
		want := append([]Point(nil), pts...)
		referenceSortPoints(want)
		sortPoints(pts)
		for j := range pts {
			if pts[j].Value != want[j].Value {
				t.Fatalf("set %d: position %d holds point %d, reference %d", i, j, pts[j].Value, want[j].Value)
			}
		}
	}
}
