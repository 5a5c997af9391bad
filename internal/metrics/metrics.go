// Package metrics is Otherworld's deterministic observability plane: a
// logical-clock-driven registry of counters, gauges and fixed-bucket
// histograms whose snapshots are a pure function of the simulation — no
// wall clock, no map-iteration-order leaks, no float accumulation in any
// concurrently-written instrument.
//
// The registry is built for the resurrection scan pool: integer adds under
// one mutex are commutative, so concurrent workers produce bit-identical
// snapshots at any pool width, the same stable-order/saturating-add
// discipline as the engine's Accounting shards. Whole registries can also
// be merged shard-style with Absorb.
//
// Snapshots persist across the microreboot boundary: segment.go packs them
// into page-sized frames of internal/layout's tail codec, the last part of
// the crash reservation's unprotected tail, so the post-microreboot kernel
// (or an offline dump reader) can report what the dead kernel measured —
// the same pstore-style trick as internal/trace, applied to measurements
// instead of events. The codec does the framing, the skip-and-count and
// the generation check; this package keeps only the point records. ReHype-style recovery work lives or dies on measuring the
// recovery path itself; this package is that instrument.
package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Labels attaches dimensions to a metric (e.g. {"phase": "page-copy"}).
// Label sets are canonicalized by sorted key, so two maps with the same
// contents always address the same series.
type Labels map[string]string

// Kind discriminates instrument types.
type Kind uint8

// Instrument kinds.
const (
	// KindCounter is a monotonically accumulated int64. Counters are the
	// only instrument the scan pool writes concurrently; integer addition
	// commutes, so worker interleaving cannot change a snapshot.
	KindCounter Kind = iota + 1
	// KindGauge is a float64 level, set serially (collectors, cost-model
	// constants). Gauges are never written from the scan pool: float
	// addition does not commute, so a concurrently-accumulated float
	// would break the bit-identical-at-any-width invariant.
	KindGauge
	// KindHistogram is a fixed-bound int64 distribution. Bounds are
	// fixed at registration so shard merges are positionwise adds.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// labelPair is one canonicalized label.
type labelPair struct{ k, v string }

// canonLabels flattens a label map into a key-sorted pair list — the one
// place a map is ranged, immediately followed by the sort that makes the
// result order-independent.
func canonLabels(ls Labels) []labelPair {
	return canonLabelsInto(nil, ls)
}

// canonLabelsInto is canonLabels into buf's storage, which it reuses when
// it is large enough.
func canonLabelsInto(buf []labelPair, ls Labels) []labelPair {
	out := buf[:0]
	for k, v := range ls {
		out = append(out, labelPair{k, v})
	}
	slices.SortFunc(out, func(a, b labelPair) int { return strings.Compare(a.k, b.k) })
	return out
}

// labelSuffix renders sorted pairs as `{k=v,...}` ("" for none).
func labelSuffix(pairs []labelPair) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// metric is one registered series. All fields are guarded by the owning
// registry's mutex.
type metric struct {
	name  string
	help  string
	pairs []labelPair
	id    string // name + labelSuffix: the registry key and sort key
	kind  Kind

	value int64   // counter
	gauge float64 // gauge

	bounds   []int64 // histogram upper bounds, sorted, deduplicated
	buckets  []int64 // non-cumulative per-bound counts
	overflow int64   // observations above the last bound
	sum      int64
	count    int64
}

func (m *metric) clone() *metric {
	c := *m
	c.bounds = append([]int64(nil), m.bounds...)
	c.buckets = append([]int64(nil), m.buckets...)
	c.pairs = append([]labelPair(nil), m.pairs...)
	return &c
}

// Registry holds a set of metrics under one mutex. A nil *Registry is a
// valid no-op sink (like a nil *trace.Ring), so instrumented code never
// checks whether metrics are enabled.
type Registry struct {
	mu         sync.Mutex
	by         map[string]*metric
	logicalNow int64
	conflicts  int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*metric)}
}

// SetNow stamps the registry with the simulation's logical clock (virtual
// nanoseconds since power-on). It feeds Snapshot.LogicalNowNS; it is never
// read from the host clock.
func (r *Registry) SetNow(ns int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.logicalNow = ns
	r.mu.Unlock()
}

// get registers or fetches a series under the lock. A kind or bucket-bound
// conflict with an existing registration returns a detached series (writes
// vanish) and bumps the conflict counter — mismatched instruments must not
// corrupt each other, and a registry write path must never panic.
func (r *Registry) get(name, help string, kind Kind, bounds []int64, ls Labels) *metric {
	pairs := canonLabels(ls)
	id := name + labelSuffix(pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.by[id]
	if m == nil {
		m = &metric{name: name, help: help, pairs: pairs, id: id, kind: kind, bounds: bounds}
		if kind == KindHistogram {
			m.buckets = make([]int64, len(bounds))
		}
		r.by[id] = m
		return m
	}
	if m.kind != kind || (kind == KindHistogram && !equalBounds(m.bounds, bounds)) {
		r.conflicts++
		d := &metric{name: name, pairs: pairs, id: id, kind: kind, bounds: bounds}
		if kind == KindHistogram {
			d.buckets = make([]int64, len(bounds))
		}
		return d
	}
	if m.help == "" {
		m.help = help
	}
	return m
}

// Counter is a handle to a counter series. The zero value is a no-op.
type Counter struct {
	r *Registry
	m *metric
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, ls Labels) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{r, r.get(name, help, KindCounter, nil, ls)}
}

// Add accumulates n (saturating). Non-positive deltas are ignored:
// counters are monotone within a kernel generation.
func (c Counter) Add(n int64) {
	if c.m == nil || n <= 0 {
		return
	}
	c.r.mu.Lock()
	c.m.value = satAdd(c.m.value, n)
	c.r.mu.Unlock()
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// SetTotal overwrites the counter with an absolute total, for
// collector-style sources that already maintain their own tally
// (phys.Mem.Stats, disk device counters, kernel perf counters). Totals may
// go down across kernel generations — that is an ordinary counter reset.
func (c Counter) SetTotal(v int64) {
	if c.m == nil {
		return
	}
	c.r.mu.Lock()
	c.m.value = v
	c.r.mu.Unlock()
}

// Gauge is a handle to a gauge series. The zero value is a no-op.
type Gauge struct {
	r *Registry
	m *metric
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, ls Labels) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{r, r.get(name, help, KindGauge, nil, ls)}
}

// Set overwrites the gauge level. Gauges must only be set from serial
// sections (see KindGauge).
func (g Gauge) Set(v float64) {
	if g.m == nil {
		return
	}
	g.r.mu.Lock()
	g.m.gauge = v
	g.r.mu.Unlock()
}

// Histogram is a handle to a histogram series. The zero value is a no-op.
type Histogram struct {
	r *Registry
	m *metric
}

// Histogram registers (or fetches) a histogram with the given inclusive
// upper bounds ("le" semantics). Bounds are sorted and deduplicated;
// re-registering the same series with different bounds detaches (see get).
func (r *Registry) Histogram(name, help string, bounds []int64, ls Labels) Histogram {
	if r == nil {
		return Histogram{}
	}
	return Histogram{r, r.get(name, help, KindHistogram, sanitizeBounds(bounds), ls)}
}

// Observe records one int64 sample.
func (h Histogram) Observe(v int64) {
	if h.m == nil {
		return
	}
	h.r.mu.Lock()
	m := h.m
	m.count++
	m.sum = satAdd(m.sum, v)
	i := sort.Search(len(m.bounds), func(i int) bool { return m.bounds[i] >= v })
	if i < len(m.bounds) {
		m.buckets[i]++
	} else {
		m.overflow++
	}
	h.r.mu.Unlock()
}

// sanitizeBounds returns a sorted, deduplicated copy of bounds.
func sanitizeBounds(bounds []int64) []int64 {
	if len(bounds) == 0 {
		return nil
	}
	out := append([]int64(nil), bounds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func equalBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// satAdd is saturating int64 addition — the same clamp the resurrection
// engine uses when folding Accounting shards, so a hypothetical overflow
// cannot wrap negative and break monotonicity.
func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	if b < 0 && a < math.MinInt64-b {
		return math.MinInt64
	}
	return a + b
}

// Absorb folds a donor registry into r shard-style: counters and histogram
// cells add (saturating), gauges keep the maximum, the logical clock keeps
// the later stamp. The donor is read under its own lock first (never
// nested with r's), and the fold visits donors in sorted-id order; since
// every combining operator is commutative and associative, any absorb
// order over disjoint shards produces the same registry. Kind or bound
// conflicts count on r.conflicts and skip the series.
func (r *Registry) Absorb(o *Registry) {
	if r == nil || o == nil || r == o {
		return
	}
	o.mu.Lock()
	donors := make([]*metric, 0, len(o.by))
	for _, m := range o.by {
		donors = append(donors, m.clone())
	}
	donorConflicts := o.conflicts
	donorNow := o.logicalNow
	o.mu.Unlock()
	sort.Slice(donors, func(i, j int) bool { return donors[i].id < donors[j].id })

	r.mu.Lock()
	defer r.mu.Unlock()
	r.conflicts = satAdd(r.conflicts, donorConflicts)
	if donorNow > r.logicalNow {
		r.logicalNow = donorNow
	}
	for _, d := range donors {
		m := r.by[d.id]
		if m == nil {
			r.by[d.id] = d
			continue
		}
		if m.kind != d.kind || (d.kind == KindHistogram && !equalBounds(m.bounds, d.bounds)) {
			r.conflicts++
			continue
		}
		switch d.kind {
		case KindCounter:
			m.value = satAdd(m.value, d.value)
		case KindGauge:
			if d.gauge > m.gauge {
				m.gauge = d.gauge
			}
		case KindHistogram:
			for i := range m.buckets {
				m.buckets[i] = satAdd(m.buckets[i], d.buckets[i])
			}
			m.overflow = satAdd(m.overflow, d.overflow)
			m.sum = satAdd(m.sum, d.sum)
			m.count = satAdd(m.count, d.count)
		}
		if m.help == "" {
			m.help = d.help
		}
	}
}

// Conflicts returns how many mismatched registrations or merges were
// refused so far.
func (r *Registry) Conflicts() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conflicts
}
