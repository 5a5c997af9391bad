package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads_total", "reads", nil)
	c.Add(3)
	c.Inc()
	c.Add(0)
	c.Add(-5) // ignored: counters are monotone within a generation
	if got := r.Snapshot().Get("reads_total", nil).Value; got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	c.SetTotal(2) // collector-style reset is allowed
	if got := r.Snapshot().Get("reads_total", nil).Value; got != 2 {
		t.Fatalf("after SetTotal: %d, want 2", got)
	}
	// Same name+labels from a second handle hits the same series.
	r.Counter("reads_total", "", nil).Inc()
	if got := r.Snapshot().Get("reads_total", nil).Value; got != 3 {
		t.Fatalf("shared series = %d, want 3", got)
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", Labels{"b": "2", "a": "1"}).Inc()
	r.Counter("x", "", Labels{"a": "1", "b": "2"}).Inc()
	p := r.Snapshot().Get("x", Labels{"b": "2", "a": "1"})
	if p == nil || p.Value != 2 {
		t.Fatalf("label-order-insensitive series: %+v", p)
	}
	if id := p.ID(); id != "x{a=1,b=2}" {
		t.Fatalf("ID = %q", id)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency", []int64{10, 100, 1000}, nil)
	for _, v := range []int64{1, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	p := r.Snapshot().Get("lat_ns", nil)
	want := []Bucket{{10, 2}, {100, 2}, {1000, 1}}
	if len(p.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", p.Buckets)
	}
	for i, b := range want {
		if p.Buckets[i] != b {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, p.Buckets[i], b)
		}
	}
	if p.Overflow != 1 || p.Count != 6 || p.Sum != 5622 {
		t.Fatalf("overflow=%d count=%d sum=%d", p.Overflow, p.Count, p.Sum)
	}
}

func TestHistogramBoundsSanitized(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []int64{100, 10, 100, 1}, nil)
	h.Observe(50)
	p := r.Snapshot().Get("h", nil)
	if len(p.Buckets) != 3 || p.Buckets[0].Le != 1 || p.Buckets[2].Le != 100 {
		t.Fatalf("bounds not sanitized: %+v", p.Buckets)
	}
	if p.Buckets[2].Count != 1 {
		t.Fatalf("observe landed wrong: %+v", p.Buckets)
	}
}

func TestKindConflictDetaches(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil).Add(7)
	// Same id re-registered as a gauge: writes must vanish, not corrupt.
	r.Gauge("m", "", nil).Set(99)
	// Histogram with different bounds than an existing histogram: same.
	r.Histogram("h", "", []int64{1, 2}, nil).Observe(1)
	r.Histogram("h", "", []int64{5}, nil).Observe(1)
	s := r.Snapshot()
	if got := s.Get("m", nil); got.Kind != "counter" || got.Value != 7 {
		t.Fatalf("counter corrupted by gauge re-registration: %+v", got)
	}
	if got := s.Get("h", nil); got.Count != 1 {
		t.Fatalf("histogram corrupted by bound mismatch: %+v", got)
	}
	if got := r.Conflicts(); got != 2 {
		t.Fatalf("conflicts = %d, want 2", got)
	}
	if got := s.Get("owmetrics_conflicts_total", nil); got.Value != 2 {
		t.Fatalf("self-metric = %+v", got)
	}
}

func TestSatAdd(t *testing.T) {
	if got := satAdd(math.MaxInt64-1, 5); got != math.MaxInt64 {
		t.Fatalf("positive clamp: %d", got)
	}
	if got := satAdd(math.MinInt64+1, -5); got != math.MinInt64 {
		t.Fatalf("negative clamp: %d", got)
	}
	if got := satAdd(2, 3); got != 5 {
		t.Fatalf("plain add: %d", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c", "", nil).Inc()
	r.Gauge("g", "", nil).Set(1)
	r.Histogram("h", "", []int64{1}, nil).Observe(1)
	r.SetNow(5)
	if got := r.Conflicts(); got != 0 {
		t.Fatalf("nil conflicts = %d", got)
	}
	s := r.Snapshot()
	if s == nil || s.Schema != SchemaVersion || len(s.Points) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

// TestConcurrentWrites is the scan-pool race test: many goroutines hammer
// the same registry; run under -race this proves the locking, and the final
// totals prove no increment was lost.
func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total", "", Labels{"kind": "write"})
			h := r.Histogram("ns", "", []int64{10, 100, 1000}, nil)
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 2000))
				if i%100 == 0 {
					_ = r.Snapshot() // readers race writers too
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Get("ops_total", Labels{"kind": "write"}).Value; got != workers*per {
		t.Fatalf("lost increments: %d, want %d", got, workers*per)
	}
	if got := s.Get("ns", nil).Count; got != workers*per {
		t.Fatalf("lost observations: %d, want %d", got, workers*per)
	}
}

// sampleRegistry builds the fixed registry used by the format goldens.
func sampleRegistry() *Registry {
	r := NewRegistry()
	r.SetNow(1500000000)
	r.Counter("phys_read_ops_total", "physical frame reads", nil).Add(42)
	r.Counter("resurrect_candidates_total", "candidates by outcome",
		Labels{"outcome": "resurrected"}).Add(7)
	r.Counter("resurrect_candidates_total", "candidates by outcome",
		Labels{"outcome": "skipped"}).Add(2)
	r.Gauge("resurrect_pagetable_fraction", "fraction of bytes from page tables", nil).Set(0.125)
	h := r.Histogram("resurrect_candidate_ns", "per-candidate wall of phases",
		[]int64{1000, 1000000, 1000000000}, nil)
	h.Observe(500)
	h.Observe(2500)
	h.Observe(2000000000)
	return r
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestJSONGolden(t *testing.T) {
	s := sampleRegistry().Snapshot()
	data, err := s.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.json.golden", data)
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != s.Fingerprint() {
		t.Fatal("JSON roundtrip changed the snapshot")
	}
	if _, err := DecodeJSON([]byte(`{"schema":"otherworld-metrics/999"}`)); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}

func TestRenderTableGolden(t *testing.T) {
	var b bytes.Buffer
	if err := sampleRegistry().Snapshot().RenderTable(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.table.golden", b.Bytes())
	// The histogram line carries the percentile summary; 2000000000 lies
	// past the last bound, so p99 must render as an overflow value.
	out := b.String()
	if !strings.Contains(out, "p50=") || !strings.Contains(out, "p99=>1000000000") {
		t.Fatalf("histogram percentile summary missing or wrong:\n%s", out)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []int64{100, 200}, nil)
	for i := 0; i < 10; i++ {
		h.Observe(50) // all in the first bucket
	}
	p := r.Snapshot().Get("lat", nil)
	// rank(50) = 5 of 10 within [0,100] -> 100*5/10 = 50.
	if v, exact := p.Quantile(50); !exact || v != 50 {
		t.Fatalf("p50 = %d (exact=%v), want 50 exact", v, exact)
	}
	if v, exact := p.Quantile(100); !exact || v != 100 {
		t.Fatalf("p100 = %d (exact=%v), want 100 exact", v, exact)
	}
	if v, _ := p.Quantile(0); v != 10 {
		t.Fatalf("p0 = %d, want rank-1 interpolation 10", v)
	}
}

func TestPrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := sampleRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	golden(t, "snapshot.prom.golden", b.Bytes())
	// Spot-check convention: cumulative buckets and a closing +Inf.
	for _, want := range []string{
		`resurrect_candidate_ns_bucket{le="+Inf"} 3`,
		`resurrect_candidate_ns_count 3`,
		`resurrect_candidates_total{outcome="resurrected"} 7`,
		"# TYPE resurrect_candidate_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per name even with two labeled series.
	if strings.Count(out, "# TYPE resurrect_candidates_total") != 1 {
		t.Fatalf("TYPE repeated per series:\n%s", out)
	}
}

func TestDiff(t *testing.T) {
	a := sampleRegistry().Snapshot()
	b := sampleRegistry().Snapshot()

	var buf bytes.Buffer
	d := Diff(a, b)
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "snapshots identical") {
		t.Fatalf("self-diff not identical: %s", buf.String())
	}

	r2 := sampleRegistry()
	r2.Counter("phys_read_ops_total", "", nil).Add(8)
	r2.Counter("brand_new_total", "", nil).Inc()
	d = Diff(a, r2.Snapshot())
	var valueDelta, present bool
	for _, dl := range d.Deltas {
		if dl.ID == "phys_read_ops_total" && dl.Field == "value" && dl.Old == 42 && dl.New == 50 {
			valueDelta = true
		}
		if dl.ID == "brand_new_total" && dl.Field == "present" && dl.New == 1 {
			present = true
		}
	}
	if !valueDelta || !present {
		t.Fatalf("diff missed deltas: %+v", d.Deltas)
	}
}

func TestFingerprintExcludesLogicalNow(t *testing.T) {
	a := sampleRegistry()
	b := sampleRegistry()
	b.SetNow(999999) // the snapshot instant must not enter the pin
	if a.Snapshot().Fingerprint() != b.Snapshot().Fingerprint() {
		t.Fatal("fingerprint leaked the logical clock")
	}
}
