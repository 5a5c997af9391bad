package metrics

import (
	"encoding/binary"
	"fmt"
	"math"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// The metrics segment is the crash-surviving on-memory form of a snapshot:
// page-granular point records packed into the unprotected tail of the
// crash reservation, behind the trace ring and the candidate index. Each
// page is one tail frame (internal/layout's frame codec, shared with the
// other two planes) stamped with the writing kernel's generation, so a wild
// write that lands on one page costs exactly that page's points, never the
// whole segment. Only the newest generation's pages are recovered, and of
// those only the pages of the newest flush (the highest logicalNow), so a
// torn re-flush within one kernel never brings back an older flush's points.
//
// Page payload, inside the frame:
//
//	logicalNow(8) | point record*
//
// Point record:
//
//	kind(1) | nameLen(2) name | labelCount(1) (kLen(2) k vLen(2) v)* |
//	counter: value(8)
//	gauge:   float64 bits(8)
//	histogram: sum(8) count(8) overflow(8) nBuckets(2) (le(8) count(8))*
//
// Help strings are not persisted: recovered points re-render with empty
// help, which costs nothing the post-mortem reader needs.

// stampSize is the logical-now prefix of every page payload.
const stampSize = 8

// SegPayloadCap is the point-record bytes one page holds.
const SegPayloadCap = phys.PageSize - layout.FrameOverhead - stampSize

// MemoryWriter is the write surface WriteSegment needs; *phys.Mem
// satisfies it.
type MemoryWriter interface {
	WriteAt(addr uint64, buf []byte) error
}

// appendPoint appends one point's record to dst, given its labels in
// canonical order. It reports false for a point the record format cannot
// hold; the caller then drops whatever it appended.
func appendPoint(dst []byte, p Point, pairs []labelPair) ([]byte, bool) {
	if len(p.Name) > math.MaxUint16 || len(pairs) > math.MaxUint8 {
		return dst, false
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
		return dst, false
	}
	dst = append(dst, byte(kind))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Name)))
	dst = append(dst, p.Name...)
	dst = append(dst, byte(len(pairs)))
	for _, lp := range pairs {
		if len(lp.k) > math.MaxUint16 || len(lp.v) > math.MaxUint16 {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(lp.k)))
		dst = append(dst, lp.k...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(lp.v)))
		dst = append(dst, lp.v...)
	}
	switch kind {
	case KindCounter:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Value))
	case KindGauge:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Gauge))
	case KindHistogram:
		if len(p.Buckets) > math.MaxUint16 {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Sum))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Count))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Overflow))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Buckets)))
		for _, bk := range p.Buckets {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(bk.Le))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(bk.Count))
		}
	}
	return dst, true
}

// decodePoints parses every record in a payload; any malformed byte fails
// the whole payload (the page CRC already vouched for the bytes, so a
// decode error means a version/format problem, treated as corruption).
func decodePoints(payload []byte) ([]Point, error) {
	var out []Point
	off := 0
	need := func(n int) error {
		if off+n > len(payload) {
			return fmt.Errorf("metrics: truncated record at %d", off)
		}
		return nil
	}
	u16 := func() uint16 { v := binary.LittleEndian.Uint16(payload[off:]); off += 2; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(payload[off:]); off += 8; return v }
	for off < len(payload) {
		if err := need(3); err != nil {
			return nil, err
		}
		kind := Kind(payload[off])
		off++
		nameLen := int(u16())
		if err := need(nameLen + 1); err != nil {
			return nil, err
		}
		p := Point{Name: string(payload[off : off+nameLen])}
		off += nameLen
		nLabels := int(payload[off])
		off++
		if nLabels > 0 {
			p.Labels = make(map[string]string, nLabels)
		}
		for i := 0; i < nLabels; i++ {
			if err := need(2); err != nil {
				return nil, err
			}
			kl := int(u16())
			if err := need(kl + 2); err != nil {
				return nil, err
			}
			k := string(payload[off : off+kl])
			off += kl
			vl := int(u16())
			if err := need(vl); err != nil {
				return nil, err
			}
			p.Labels[k] = string(payload[off : off+vl])
			off += vl
		}
		switch kind {
		case KindCounter:
			if err := need(8); err != nil {
				return nil, err
			}
			p.Kind = "counter"
			p.Value = int64(u64())
		case KindGauge:
			if err := need(8); err != nil {
				return nil, err
			}
			p.Kind = "gauge"
			p.Gauge = math.Float64frombits(u64())
		case KindHistogram:
			if err := need(26); err != nil {
				return nil, err
			}
			p.Kind = "histogram"
			p.Sum = int64(u64())
			p.Count = int64(u64())
			p.Overflow = int64(u64())
			nb := int(u16())
			if err := need(nb * 16); err != nil {
				return nil, err
			}
			p.Buckets = make([]Bucket, nb)
			for i := 0; i < nb; i++ {
				p.Buckets[i] = Bucket{Le: int64(u64()), Count: int64(u64())}
			}
		default:
			return nil, fmt.Errorf("metrics: record kind %d unknown", kind)
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteSegment packs a snapshot into region for kernel generation gen, one
// framed page at a time, zero-filling every trailing page so stale points
// from an earlier, longer flush can never resurrect. It returns the data
// pages written and how many points were dropped for lack of room. The
// first write error aborts (the region is supposed to be unprotected; a
// protection fault here is a real bug the caller must see).
//
// Records are appended straight to one payload buffer and every page is
// sealed into one reused image, so a flush allocates the same few buffers
// however many points and pages it writes. Registry.WriteSegment packs a
// live registry the same way without building the snapshot.
func WriteSegment(mem MemoryWriter, region phys.Region, gen uint32, s *Snapshot) (pages, dropped int, err error) {
	if s == nil {
		s = &Snapshot{}
	}
	var w segWriter
	w.start(mem, region, gen, s.LogicalNowNS)
	for _, p := range s.Points {
		w.pairs = canonLabelsInto(w.pairs, p.Labels)
		if !w.add(p, w.pairs) {
			break
		}
	}
	return w.finish()
}

// WriteSegment packs the registry's series into region exactly as
// WriteSegment(mem, region, gen, r.Snapshot()) would, with the same writes
// and results, but encodes each series straight from the registry into
// buffers the registry keeps, so a flush builds no snapshot, label map or
// bucket slice. It holds the registry's lock while it writes.
func (r *Registry) WriteSegment(mem MemoryWriter, region phys.Region, gen uint32) (pages, dropped int, err error) {
	if r == nil {
		return WriteSegment(mem, region, gen, r.Snapshot())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := &r.seg
	w.start(mem, region, gen, r.logicalNow)
	for _, m := range r.series {
		p := m.record(r.buckets)
		if m.kind == KindHistogram {
			r.buckets = p.Buckets
		}
		if !w.add(p, m.pairs) {
			break
		}
	}
	return w.finish()
}

// segWriter packs point records into the framed pages of one region per
// flush. Its page image, payload and label scratch are made by its first
// flush and reused by the next.
type segWriter struct {
	img     []byte
	payload []byte
	pairs   []labelPair

	// The flush in progress.
	mem            MemoryWriter
	region         phys.Region
	gen            uint32
	pages, dropped int
	err            error
}

// start begins a flush stamped with the logical clock now.
func (w *segWriter) start(mem MemoryWriter, region phys.Region, gen uint32, now int64) {
	if w.img == nil {
		w.img = make([]byte, phys.PageSize)
		// The payload holds a full page's records and the next record, at
		// most a page long, that did not fit.
		w.payload = make([]byte, 0, 2*phys.PageSize)
	}
	w.mem, w.region, w.gen = mem, region, gen
	w.pages, w.dropped, w.err = 0, 0, nil
	w.payload = binary.LittleEndian.AppendUint64(w.payload[:0], uint64(now))
}

// add appends p's record, given its labels in canonical order, sealing
// and writing the page it fills. A point that cannot be encoded, does not
// fit a page, or finds the region full is dropped. It reports false once a
// write has failed; the flush is then over.
func (w *segWriter) add(p Point, pairs []labelPair) bool {
	if w.region.Frames <= 0 {
		w.dropped++
		return true
	}
	rec := len(w.payload)
	var ok bool
	if w.payload, ok = appendPoint(w.payload, p, pairs); !ok || len(w.payload)-rec > SegPayloadCap {
		w.payload = w.payload[:rec]
		w.dropped++
		return true
	}
	if len(w.payload)-stampSize > SegPayloadCap {
		if w.pages == w.region.Frames-1 {
			// No room for another page; everything else drops.
			w.payload = w.payload[:rec]
			w.dropped++
			return true
		}
		if w.err = w.flush(rec); w.err != nil {
			return false
		}
		w.payload = w.payload[:stampSize+copy(w.payload[stampSize:], w.payload[rec:])]
	}
	return true
}

// flush seals the first n payload bytes into the next page and writes it.
func (w *segWriter) flush(n int) error {
	layout.SealFrameInto(w.img, layout.KindMetrics, 0, w.gen, w.payload[:n])
	if err := w.mem.WriteAt(phys.FrameAddr(w.region.Start+w.pages), w.img); err != nil {
		return err
	}
	w.pages++
	return nil
}

// finish writes the last data page, or an empty one if there was none,
// zero-fills the rest of the region and returns the flush's results.
func (w *segWriter) finish() (pages, dropped int, err error) {
	err = w.err
	if err == nil && w.region.Frames > 0 {
		err = w.writeTail()
	}
	w.mem = nil
	return w.pages, w.dropped, err
}

func (w *segWriter) writeTail() error {
	if len(w.payload) > stampSize || w.pages == 0 {
		if err := w.flush(len(w.payload)); err != nil {
			return err
		}
	}
	clear(w.img)
	for f := w.region.Start + w.pages; f < w.region.End(); f++ {
		if err := w.mem.WriteAt(phys.FrameAddr(f), w.img); err != nil {
			return err
		}
	}
	return nil
}

// ParsedSegment is a metrics segment recovered from raw memory.
type ParsedSegment struct {
	// Snapshot holds the recovered points of the newest generation's newest
	// flush (never nil; empty when nothing validated). LogicalNowNS is the newest valid
	// page's stamp.
	Snapshot *Snapshot
	// Pages counts the frames examined that bore data; Valid of them
	// decoded (older generations included, though their points are
	// dropped), Corrupted failed the framing, CRC or record decode, and
	// Empty counts all-zero frames in the region (ParseSegment only).
	Pages     int
	Valid     int
	Corrupted int
	Empty     int
}

// ParseSegment recovers a segment from a known region of raw memory, such
// as a dead slot's tail: what the dead kernel measured. Corruption is
// counted and skipped, never fatal; an unreadable frame counts corrupted.
func ParseSegment(mem layout.Reader, region phys.Region) *ParsedSegment {
	return salvageSegment(mem, phys.FrameAddr(region.Start), region.Frames, false)
}

// ScanSegment sweeps the first `frames` frames of an arbitrary memory
// image for metrics pages — the owstat path over a raw dump, where the
// segment's exact region is not known. Only frames whose header names a
// metrics page count; a frame whose header itself was destroyed is
// invisible here (its loss still shows as a gap against the writer's page
// count).
func ScanSegment(mem layout.Reader, frames int) *ParsedSegment {
	return salvageSegment(mem, 0, frames, true)
}

// segPage is one decoded page: its flush's logical stamp and points.
type segPage struct {
	now    int64
	points []Point
}

func decodePage(f layout.Frame) (segPage, bool) {
	if len(f.Payload) < stampSize {
		return segPage{}, false
	}
	pts, err := decodePoints(f.Payload[stampSize:])
	return segPage{now: int64(binary.LittleEndian.Uint64(f.Payload)), points: pts}, err == nil
}

// salvageSegment walks frames pages from base and folds the newest
// generation's points into a snapshot. In scan mode only frames that bear
// the metrics kind are counted; otherwise every non-empty frame is.
func salvageSegment(mem layout.Reader, base uint64, frames int, scan bool) *ParsedSegment {
	span := layout.Span{Base: base, Count: frames, Size: phys.PageSize, Kind: layout.KindMetrics}
	pages, s := layout.SalvageFrames(mem, span, true, decodePage)
	ps := &ParsedSegment{Empty: s.Empty, Pages: frames - s.Empty, Valid: s.Valid + s.Stale}
	if scan {
		ps.Empty, ps.Pages = 0, ps.Pages-s.Foreign
	}
	ps.Corrupted = ps.Pages - ps.Valid
	snap := &Snapshot{Schema: SchemaVersion}
	for _, pg := range pages {
		snap.LogicalNowNS = max(snap.LogicalNowNS, pg.now)
	}
	// Within one generation a torn re-flush leaves an older flush's pages
	// behind; only the newest flush stamp's points are kept.
	for _, pg := range pages {
		if pg.now == snap.LogicalNowNS {
			snap.Points = append(snap.Points, pg.points...)
		}
	}
	sortPoints(snap.Points)
	ps.Snapshot = snap
	return ps
}
