package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// layout.SealFrame, and the trailing pages written from a fresh zero page.
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
		img := layout.SealFrame(layout.KindMetrics, 0, gen, phys.PageSize, payload)
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
