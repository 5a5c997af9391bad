package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion is the versioned snapshot schema identifier. Bump the
// suffix on any incompatible change to the JSON shape.
const SchemaVersion = "otherworld-metrics/1"

// Bucket is one histogram cell: observations with value <= Le that fell in
// no earlier bucket (non-cumulative; the Prometheus exposition cumulates).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Point is one serialized series.
type Point struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter total.
	Value int64 `json:"value,omitempty"`
	// Gauge is the gauge level.
	Gauge float64 `json:"gauge,omitempty"`
	// Sum/Count/Overflow/Buckets are the histogram cells.
	Sum      int64    `json:"sum,omitempty"`
	Count    int64    `json:"count,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
	Buckets  []Bucket `json:"buckets,omitempty"`
}

// ID returns the canonical series identity: name plus sorted labels.
func (p Point) ID() string {
	return p.Name + labelSuffix(canonLabels(p.Labels))
}

// Snapshot is a deep, sorted copy of a registry at one logical instant.
type Snapshot struct {
	Schema string `json:"schema"`
	// LogicalNowNS is the virtual clock at snapshot time. It is the same
	// at any resurrection pool width, since a pass advances the clock by
	// its schedule at resurrect.CanonicalWorkers, but Fingerprint leaves it
	// out: a fingerprint pins the series, and tests that pin the clock
	// compare the stamp itself.
	LogicalNowNS int64   `json:"logical_now_ns"`
	Points       []Point `json:"metrics"`
}

// Snapshot captures every registered series, the registry's own conflict
// counter among them, in sortPoints order, which the registry keeps its
// series in. Safe to call concurrently with writers; a nil registry yields
// an empty (but well-formed) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Schema: SchemaVersion}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.LogicalNowNS = r.logicalNow
	s.Points = make([]Point, len(r.series))
	for i, m := range r.series {
		s.Points[i] = m.point()
	}
	return s
}

// sortPoints orders by name, then canonical label string — so every series
// of one name is contiguous (the Prometheus writer relies on this). Each
// point's label string is built once.
func sortPoints(pts []Point) {
	o := pointOrder{pts: pts, labels: make([]string, len(pts))}
	var pairs []labelPair
	var buf []byte
	for i, p := range pts {
		pairs = canonLabelsInto(pairs, p.Labels)
		buf = appendLabelSuffix(buf[:0], pairs)
		o.labels[i] = string(buf)
	}
	sort.Sort(o)
}

// pointOrder sorts points by name, then by their label strings, which move
// with them.
type pointOrder struct {
	pts    []Point
	labels []string
}

func (o pointOrder) Len() int { return len(o.pts) }

func (o pointOrder) Less(i, j int) bool {
	if o.pts[i].Name != o.pts[j].Name {
		return o.pts[i].Name < o.pts[j].Name
	}
	return o.labels[i] < o.labels[j]
}

func (o pointOrder) Swap(i, j int) {
	o.pts[i], o.pts[j] = o.pts[j], o.pts[i]
	o.labels[i], o.labels[j] = o.labels[j], o.labels[i]
}

// point returns m as a snapshot point.
func (m *metric) point() Point {
	p := m.record(make([]Bucket, 0, len(m.bounds)))
	if len(m.pairs) > 0 {
		p.Labels = make(map[string]string, len(m.pairs))
		for _, lp := range m.pairs {
			p.Labels[lp.k] = lp.v
		}
	}
	return p
}

// record returns m as a point without its labels, which the segment
// encoder takes in canonical order instead, a histogram's buckets appended
// to buckets[:0].
func (m *metric) record(buckets []Bucket) Point {
	p := Point{Name: m.name, Kind: m.kind.String(), Help: m.help}
	switch m.kind {
	case KindCounter:
		p.Value = m.value
	case KindGauge:
		p.Gauge = m.gauge
	case KindHistogram:
		p.Sum, p.Count, p.Overflow = m.sum, m.count, m.overflow
		p.Buckets = slices.Grow(buckets[:0], len(m.bounds))
		for i, le := range m.bounds {
			p.Buckets = append(p.Buckets, Bucket{Le: le, Count: m.buckets[i]})
		}
	}
	return p
}

// Get returns the point with the given name and labels, or nil.
func (s *Snapshot) Get(name string, ls Labels) *Point {
	if s == nil {
		return nil
	}
	id := name + labelSuffix(canonLabels(ls))
	for i := range s.Points {
		if s.Points[i].ID() == id {
			return &s.Points[i]
		}
	}
	return nil
}

// formatGauge renders a float without precision loss or locale surprises.
func formatGauge(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Fingerprint renders the snapshot as a stable text form for golden
// pinning: one line per series in sorted order. LogicalNowNS is excluded —
// the fingerprint pins what was measured, not the instant of the snapshot;
// see the field's comment.
func (s *Snapshot) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema=%s\n", s.Schema)
	for _, p := range s.Points {
		switch p.Kind {
		case "counter":
			fmt.Fprintf(&b, "counter %s = %d\n", p.ID(), p.Value)
		case "gauge":
			fmt.Fprintf(&b, "gauge %s = %s\n", p.ID(), formatGauge(p.Gauge))
		case "histogram":
			fmt.Fprintf(&b, "histogram %s count=%d sum=%d overflow=%d buckets=", p.ID(), p.Count, p.Sum, p.Overflow)
			for i, bk := range p.Buckets {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d:%d", bk.Le, bk.Count)
			}
			b.WriteByte('\n')
		default:
			fmt.Fprintf(&b, "%s %s\n", p.Kind, p.ID())
		}
	}
	return b.String()
}

// EncodeJSON renders the versioned JSON form (golden-tested byte for byte:
// encoding/json sorts map keys, so the output is deterministic).
func (s *Snapshot) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeJSON parses and schema-checks a snapshot.
func DecodeJSON(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("metrics: decode snapshot: %w", err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("metrics: snapshot schema %q, want %q", s.Schema, SchemaVersion)
	}
	return &s, nil
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// promLabels renders `{k="v",...}` with an optional extra le pair.
func promLabels(pairs []labelPair, le string) string {
	if len(pairs) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, escapeLabel(p.v))
	}
	if le != "" {
		if len(pairs) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the Prometheus text exposition format. Histogram
// buckets are cumulated and close with le="+Inf" per convention.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, p := range s.Points {
		pairs := canonLabels(p.Labels)
		if p.Name != lastName {
			if p.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, p.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
				return err
			}
			lastName = p.Name
		}
		var err error
		switch p.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s%s %d\n", p.Name, promLabels(pairs, ""), p.Value)
		case "gauge":
			_, err = fmt.Fprintf(w, "%s%s %s\n", p.Name, promLabels(pairs, ""), formatGauge(p.Gauge))
		case "histogram":
			cum := int64(0)
			for _, bk := range p.Buckets {
				cum = satAdd(cum, bk.Count)
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					p.Name, promLabels(pairs, strconv.FormatInt(bk.Le, 10)), cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", p.Name, promLabels(pairs, "+Inf"), p.Count); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %d\n", p.Name, promLabels(pairs, ""), p.Sum); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(pairs, ""), p.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RenderTable renders a human-readable table, one series per line.
// Histograms get a p50/p90/p99 summary next to the raw totals; a ">N"
// value marks a rank landing past the last bucket bound, where the
// histogram has no upper edge to interpolate against.
func (s *Snapshot) RenderTable(w io.Writer) error {
	for _, p := range s.Points {
		var val string
		switch p.Kind {
		case "counter":
			val = strconv.FormatInt(p.Value, 10)
		case "gauge":
			val = formatGauge(p.Gauge)
		case "histogram":
			val = fmt.Sprintf("count=%d sum=%d overflow=%d", p.Count, p.Sum, p.Overflow)
			if p.Count > 0 {
				val += fmt.Sprintf(" p50=%s p90=%s p99=%s",
					p.quantileString(50), p.quantileString(90), p.quantileString(99))
			}
		}
		if _, err := fmt.Fprintf(w, "%-10s %-58s %s\n", p.Kind, p.ID(), val); err != nil {
			return err
		}
	}
	return nil
}

// Quantile estimates the q-th percentile from the histogram's buckets:
// nearest-rank over the counts, linear interpolation inside the winning
// bucket, integer math only — so identical snapshots render identical
// summaries on every platform. A rank landing in the overflow region (past
// the last bound) reports the last bound with exact=false, since the
// histogram has no upper edge there. Zero-count histograms report 0.
func (p Point) Quantile(q int) (v int64, exact bool) {
	if p.Kind != "histogram" || p.Count <= 0 {
		return 0, true
	}
	if q < 0 {
		q = 0
	}
	if q > 100 {
		q = 100
	}
	rank := (int64(q)*p.Count + 99) / 100 // ceil(q/100 * count)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	var lo int64
	for _, bk := range p.Buckets {
		if rank <= cum+bk.Count {
			// Interpolate within [lo, bk.Le] by position in the bucket.
			return lo + (bk.Le-lo)*(rank-cum)/bk.Count, true
		}
		cum += bk.Count
		lo = bk.Le
	}
	return lo, false
}

func (p Point) quantileString(q int) string {
	v, exact := p.Quantile(q)
	if !exact {
		return fmt.Sprintf(">%d", v)
	}
	return strconv.FormatInt(v, 10)
}

// Delta is one changed field between two snapshots.
type Delta struct {
	// ID is the series identity, Field the changed cell: "value", "sum",
	// "count", "overflow", "le=N", or "present" for an added/removed
	// series (0 -> 1 means added in the newer snapshot).
	ID    string  `json:"id"`
	Field string  `json:"field"`
	Old   float64 `json:"old"`
	New   float64 `json:"new"`
}

// DiffResult is a per-metric comparison of two snapshots.
type DiffResult struct {
	// Metrics counts the distinct series compared (union of both sides).
	Metrics int     `json:"metrics"`
	Deltas  []Delta `json:"deltas"`
}

// cell is one named numeric value of a flattened point.
type cell struct {
	name string
	val  float64
}

// fields flattens a point to named numeric cells.
func (p Point) fields() []cell {
	switch p.Kind {
	case "gauge":
		return []cell{{"value", p.Gauge}}
	case "histogram":
		out := []cell{{"sum", float64(p.Sum)}, {"count", float64(p.Count)}, {"overflow", float64(p.Overflow)}}
		for _, bk := range p.Buckets {
			out = append(out, cell{"le=" + strconv.FormatInt(bk.Le, 10), float64(bk.Count)})
		}
		return out
	default:
		return []cell{{"value", float64(p.Value)}}
	}
}

// Diff compares two snapshots series by series, in sorted-id order. Series
// present on only one side yield a single "present" delta.
func Diff(a, b *Snapshot) DiffResult {
	am := make(map[string]Point)
	bm := make(map[string]Point)
	ids := make([]string, 0, len(a.Points)+len(b.Points))
	for _, p := range a.Points {
		am[p.ID()] = p
		ids = append(ids, p.ID())
	}
	for _, p := range b.Points {
		id := p.ID()
		bm[id] = p
		if _, dup := am[id]; !dup {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	res := DiffResult{Metrics: len(ids)}
	for _, id := range ids {
		pa, inA := am[id]
		pb, inB := bm[id]
		switch {
		case !inA:
			res.Deltas = append(res.Deltas, Delta{ID: id, Field: "present", Old: 0, New: 1})
		case !inB:
			res.Deltas = append(res.Deltas, Delta{ID: id, Field: "present", Old: 1, New: 0})
		default:
			fa, fb := pa.fields(), pb.fields()
			if len(fa) != len(fb) {
				res.Deltas = append(res.Deltas, Delta{ID: id, Field: "shape", Old: float64(len(fa)), New: float64(len(fb))})
				continue
			}
			for i := range fa {
				if fa[i].name != fb[i].name {
					res.Deltas = append(res.Deltas, Delta{ID: id, Field: "shape", Old: 0, New: 1})
					break
				}
				if fa[i].val != fb[i].val {
					res.Deltas = append(res.Deltas, Delta{ID: id, Field: fa[i].name, Old: fa[i].val, New: fb[i].val})
				}
			}
		}
	}
	return res
}

// Render prints the diff; identical snapshots produce a single
// "snapshots identical" line (the owstat self-diff smoke greps for it).
func (d DiffResult) Render(w io.Writer) error {
	if len(d.Deltas) == 0 {
		_, err := fmt.Fprintf(w, "snapshots identical (%d metrics; 0 deltas)\n", d.Metrics)
		return err
	}
	for _, dl := range d.Deltas {
		if _, err := fmt.Fprintf(w, "%s %s: %s -> %s (%+g)\n",
			dl.ID, dl.Field, formatGauge(dl.Old), formatGauge(dl.New), dl.New-dl.Old); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d deltas across %d metrics\n", len(d.Deltas), d.Metrics)
	return err
}
