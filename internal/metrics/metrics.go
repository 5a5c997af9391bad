// Package metrics is Otherworld's deterministic observability plane: a
// logical-clock-driven registry of counters, gauges and fixed-bucket
// histograms whose snapshots are a pure function of the simulation — no
// wall clock, no map-iteration-order leaks, no float accumulation in any
// concurrently-written instrument.
//
// The registry is built for the resurrection scan pool: integer adds under
// one mutex are commutative, so concurrent workers produce bit-identical
// snapshots at any pool width, the same stable-order/saturating-add
// discipline as the engine's Accounting shards.
//
// Snapshots persist across the microreboot boundary: segment.go packs them
// into page-sized frames of internal/layout's tail codec, the last part of
// the crash reservation's unprotected tail, so a reader of the dead slot's
// tail (owstat over a dump) can report what the dead kernel measured —
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

// The registry's own series: how many registrations it refused.
const (
	conflictsName = "owmetrics_conflicts_total"
	conflictsHelp = "registrations or merges refused over kind/bucket mismatch"
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
	return string(appendLabelSuffix(nil, pairs))
}

// appendLabelSuffix appends labelSuffix(pairs) to dst.
func appendLabelSuffix(dst []byte, pairs []labelPair) []byte {
	if len(pairs) == 0 {
		return dst
	}
	dst = append(dst, '{')
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p.k...)
		dst = append(dst, '=')
		dst = append(dst, p.v...)
	}
	return append(dst, '}')
}

// metric is one registered series. All fields are guarded by the owning
// registry's mutex.
type metric struct {
	name  string
	help  string
	pairs []labelPair
	// labels is labelSuffix(pairs), what series of one name sort by.
	labels string
	kind   Kind

	value int64   // counter
	gauge float64 // gauge

	bounds   []int64 // histogram upper bounds, sorted, deduplicated
	buckets  []int64 // non-cumulative per-bound counts
	overflow int64   // observations above the last bound
	sum      int64
	count    int64
}

// compareSeries orders series as sortPoints orders their points: by name,
// then label string.
func compareSeries(a, b *metric) int {
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	return strings.Compare(a.labels, b.labels)
}

// Registry holds a set of metrics under one mutex. A nil *Registry is a
// valid no-op sink (like a nil *trace.Ring), so instrumented code never
// checks whether metrics are enabled.
type Registry struct {
	mu sync.Mutex
	// byName holds the registered series of each name, so that a lookup
	// compares its label map with theirs and needs no canonical form.
	byName map[string][]*metric
	// series holds every registered series in compareSeries order, the
	// order a snapshot and a flush emit them in. conflicts, the registry's
	// own counter of refused registrations, is one of them.
	series     []*metric
	conflicts  *metric
	logicalNow int64

	// Scratch reused under mu, so that a lookup of an existing series and
	// a flush allocate nothing: a lookup's bounds, sorted when they arrive
	// unsorted, and a flush's histogram buckets and segment buffers.
	bounds  []int64
	buckets []Bucket
	seg     segWriter
}

// NewRegistry returns a registry holding only its conflicts counter.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string][]*metric)}
	r.conflicts = r.get(conflictsName, conflictsHelp, KindCounter, nil, nil)
	return r
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
// corrupt each other, and a registry write path must never panic. A
// lookup compares label maps and bounds as they come, sorting bounds in
// the registry's scratch only if they arrive unsorted, so fetching an
// existing series allocates nothing; registering one canonicalises its
// labels and copies its bounds.
func (r *Registry) get(name, help string, kind Kind, bounds []int64, ls Labels) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == KindHistogram && !strictlyIncreasing(bounds) {
		r.bounds = append(r.bounds[:0], bounds...)
		slices.Sort(r.bounds)
		bounds = slices.Compact(r.bounds)
	}
	m := r.lookup(name, ls)
	if m == nil {
		m = newMetric(name, help, kind, bounds, ls)
		r.byName[name] = append(r.byName[name], m)
		i, _ := slices.BinarySearchFunc(r.series, m, compareSeries)
		r.series = slices.Insert(r.series, i, m)
		return m
	}
	if m.kind != kind || (kind == KindHistogram && !slices.Equal(m.bounds, bounds)) {
		r.conflicts.value++
		return newMetric(name, "", kind, bounds, ls)
	}
	if m.help == "" {
		m.help = help
	}
	return m
}

// lookup returns the registered series of name whose labels are ls, or
// nil.
func (r *Registry) lookup(name string, ls Labels) *metric {
	for _, m := range r.byName[name] {
		if sameLabels(m.pairs, ls) {
			return m
		}
	}
	return nil
}

// sameLabels reports whether canonical pairs hold exactly the labels ls
// holds.
func sameLabels(pairs []labelPair, ls Labels) bool {
	if len(pairs) != len(ls) {
		return false
	}
	for _, p := range pairs {
		if v, ok := ls[p.k]; !ok || v != p.v {
			return false
		}
	}
	return true
}

// newMetric makes a series, canonicalising its labels and, for a
// histogram, copying its sorted bounds.
func newMetric(name, help string, kind Kind, bounds []int64, ls Labels) *metric {
	pairs := canonLabels(ls)
	m := &metric{name: name, help: help, pairs: pairs, labels: labelSuffix(pairs), kind: kind}
	if kind == KindHistogram {
		m.bounds = append([]int64(nil), bounds...)
		m.buckets = make([]int64, len(bounds))
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
	return Histogram{r, r.get(name, help, KindHistogram, bounds, ls)}
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

// strictlyIncreasing reports whether bounds are already sorted and
// deduplicated.
func strictlyIncreasing(bounds []int64) bool {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
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

// Conflicts returns how many mismatched registrations or merges were
// refused so far.
func (r *Registry) Conflicts() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conflicts.value
}
