package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"otherworld/internal/experiment"
	"otherworld/internal/sched"
)

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// declared returns BENCHMARK.json's metric units for one mode.
func declared(bj benchmarkJSON, traced bool) map[string]string {
	out := make(map[string]string)
	if traced {
		for _, m := range bj.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range bj.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the program's
// catalog and workload list in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command %v, want %v", bj.Command, want)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built in", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, built in %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	var e2e, layers []metricDef
	for _, d := range catalog {
		switch d.scope {
		case endToEnd:
			e2e = append(e2e, d)
		case perLayer:
			layers = append(layers, d)
		}
	}
	if len(bj.EndToEnd) != len(e2e) || len(bj.PerLayer) != len(layers) {
		t.Fatalf("declared %d end-to-end and %d per-layer metrics, catalog has %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(e2e), len(layers))
	}
	for i, d := range e2e {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: declared %+v, catalog %+v", i, m, d)
		}
	}
	for i, d := range layers {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: declared %+v, catalog %+v", i, m, d)
		}
	}
}

// TestSmokeEveryWorkload runs every workload shrunk to its fixed set of two
// cycles, untraced and traced, and checks the printed metrics: every
// declared name with its unit on the result line, nothing undeclared, and
// every output correct.
func TestSmokeEveryWorkload(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				cfg := runConfig{
					seed: 3, seconds: 1e-3, trace: traced,
					fixed: 2, population: 64, perApp: 2,
					traceOut: filepath.Join(t.TempDir(), "trace.json"),
				}
				var out, errs bytes.Buffer
				rep := measure(w, cfg, &out, &errs)
				printResult(&out, rep)
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d:\n%s", rep.Correct, rep.Failed, rep.Attempted, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Metrics map[string]struct{ Unit string }
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("result line: %v", err)
				}
				want := declared(bj, traced)
				got := make(map[string]string)
				for n, m := range res.Metrics {
					got[n] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("result line metrics %v, want %v", got, want)
				}
				for _, l := range lines[:len(lines)-1] {
					if strings.HasPrefix(l, "#") {
						continue
					}
					f := strings.Fields(l)
					if len(f) != 5 || f[0] != w.name {
						t.Errorf("malformed metric line %q", l)
						continue
					}
					d, ok := lookup(f[1])
					if !ok || d.Unit != f[3] {
						t.Errorf("undeclared metric or unit in %q", l)
					}
					if u, decl := want[f[1]]; decl && f[2] == "null" {
						t.Errorf("declared metric %s (%s) is unknown", f[1], u)
					}
				}
				if traced {
					checkTraceFile(t, cfg.traceOut)
				}
			})
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	layers := make(map[string]bool)
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad trace event %+v", e)
		}
		layers[e.Cat] = true
	}
	for _, l := range []string{"core", "kernel", "trace", "metrics", "sched", "spans"} {
		if !layers[l] {
			t.Errorf("trace file has no %s span", l)
		}
	}
}

// TestPercentileNeedsTenBeyond pins the tail-percentile rule: a percentile
// is known only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},
		{99, 90, 0, false},
		{1000, 99, 990, true},
		{200, 99, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if m, _ := median([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); m != 3.5 {
		t.Errorf("median = %v, want 3.5", m)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample known")
	}
}

// TestFleetMatchesFleetRecovery builds the benchmark's fleet with the
// experiment package's inputs and requires the same modeled tier-0 first
// resume and requests lost as experiment.FleetRecovery at the same seed.
func TestFleetMatchesFleetRecovery(t *testing.T) {
	const pop, seed = 64, 5
	cfg := experiment.DefaultFleet(pop, seed)
	cfg.Workers = resurrectWidth
	want, err := experiment.FleetRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantLost int64
	for _, st := range want.Tiers {
		wantLost += st.RequestsLost
	}
	sc := newFleet(pop, seed, func(i int) string { return fmt.Sprintf("fleet-%04d", i) })
	r := runCycle(newTracer(false), sc, seed, cycleOpts{width: resurrectWidth, name: "fleet"})
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := r.firstResume; got != want.Tiers[sched.TierCritical].FirstResume {
		t.Errorf("tier-0 first resume %v, FleetRecovery %v", got, want.Tiers[sched.TierCritical].FirstResume)
	}
	if r.lost != wantLost {
		t.Errorf("requests lost %d, FleetRecovery %d", r.lost, wantLost)
	}
	if r.interruption != want.Outcome.InterruptionAt(4) {
		t.Errorf("interruption %v, FleetRecovery %v", r.interruption, want.Outcome.InterruptionAt(4))
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "recover_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cycles_per_s", Better: "higher", Bound: 0.10}
	strict := metricDef{Name: "failed_pct", Better: "lower", Bound: 0}
	around := func(center float64, jitter ...float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center + jitter[i%len(jitter)]
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"faster", lower, around(100, -1, 1, 0), around(80, -1, 1, 0), improved},
		{"same", lower, around(100, -1, 1, 0), around(100, 1, -1, 0), unchanged},
		{"within bound", lower, around(100, -1, 1, 0), around(105, -1, 1, 0), unchanged},
		{"slower", lower, around(100, -1, 1, 0), around(120, -1, 1, 0), regressed},
		{"noisy", lower, around(100, -40, 40, 0, 20, -20), around(101, -40, 40, 0, 20, -20), unresolved},
		{"noisy but every run better", metricDef{Better: "lower", Bound: 0.01},
			[]float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109},
			[]float64{99.0, 99.1, 99.2, 99.3, 99.4, 99.5, 99.6, 99.7, 99.8, 99.9}, unchanged},
		{"throughput up", higher, around(10, -0.1, 0.1, 0), around(12, -0.1, 0.1, 0), improved},
		{"throughput down", higher, around(10, -0.1, 0.1, 0), around(8, -0.1, 0.1, 0), regressed},
		{"no failures", strict, around(0, 0), around(0, 0), unchanged},
		{"failures appear", strict, around(0, 0), around(5, 0, 0, 0, 0, -5), regressed},
		{"too few pairs to gain", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, unchanged},
		{"unknown on both sides", lower, nil, nil, noValues},
	} {
		if got := judge(c.d, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareCommand drives -compare over written reports: exit 0 without
// a regression, 1 with one, 2 with too few pairs.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recoverMS float64, failed int) string {
		v, zero := recoverMS, 0.0
		fp := float64(failed)
		rep := report{Workload: "mysql8-eager", Metrics: map[string]jsonMetric{
			"recover_ms_p50":  {Value: &v, Unit: "ms", N: 50},
			"failed_pct":      {Value: &fp, Unit: "%", N: 50},
			"setup_s":         {Value: &zero, Unit: "s"},
			"data_violations": {Unit: "count"},
		}}
		path := filepath.Join(dir, name)
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	args := func(pairs int, changeMS float64, failed int) []string {
		var ps, cs []string
		for i := 0; i < pairs; i++ {
			tag := fmt.Sprintf("%d-%v-%d-%d", pairs, changeMS, failed, i)
			ps = append(ps, write("p"+tag+".json", 40+float64(i%3), 0))
			cs = append(cs, write("c"+tag+".json", changeMS+float64(i%3), failed))
		}
		return append(append(append([]string{"-compare"}, ps...), "--"), cs...)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
		verd string
	}{
		{"faster", args(10, 30, 0), 0, "recover_ms_p50"},
		{"slower", args(10, 50, 0), 1, "regressed"},
		{"failing", args(10, 40, 10), 1, "regressed"},
		{"few pairs", args(9, 40, 0), 2, ""},
	} {
		var out, errs bytes.Buffer
		if code := run(c.args, &out, &errs); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errs.String())
		}
		if !strings.Contains(out.String(), c.verd) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.verd, out.String())
		}
	}
	var out bytes.Buffer
	run(args(10, 30, 0), &out, &bytes.Buffer{})
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) > 1 && f[1] == "recover_ms_p50" && f[len(f)-1] != improved {
			t.Errorf("faster change judged %q", sc.Text())
		}
		if len(f) > 1 && f[1] == "data_violations" && f[len(f)-1] != noValues {
			t.Errorf("unknown metric judged %q", sc.Text())
		}
	}
}

// lookup returns the catalog entry for name.
func lookup(name string) (metricDef, bool) {
	for _, d := range catalog {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
