package main

import (
	"bytes"
	"strings"
	"testing"

	"otherworld/internal/metrics"
)

// TestReadSnapshotRejectsUnknownSchema pins the decoder to the one schema
// it writes: a future schema and every retired one are refused.
func TestReadSnapshotRejectsUnknownSchema(t *testing.T) {
	for _, schema := range []string{"otherworld-bench/99", "otherworld-bench/6", "otherworld-bench/1"} {
		if _, err := readSnapshot([]byte(`{"schema":"` + schema + `"}`)); err == nil {
			t.Fatalf("schema %q accepted", schema)
		}
	}
}

// TestBadTableRefused: a -table that names none of the paper's tables is
// refused with exit 2 before anything runs, not answered with no output
// and exit 0.
func TestBadTableRefused(t *testing.T) {
	for _, table := range []string{"7", "-1"} {
		var errw bytes.Buffer
		if code := run([]string{"-table", table}, &errw); code != 2 ||
			!strings.Contains(errw.String(), "-table "+table) {
			t.Errorf("-table %s: exit %d, stderr %q; want exit 2", table, code, errw.String())
		}
	}
}

// TestNegativeFleetRefused: a negative -fleet population is refused with
// exit 2 before anything runs. It used to fall through to -all and start
// regenerating every table.
func TestNegativeFleetRefused(t *testing.T) {
	var errw bytes.Buffer
	if code := run([]string{"-fleet", "-5"}, &errw); code != 2 || !strings.Contains(errw.String(), "-fleet -5") {
		t.Errorf("-fleet -5: exit %d, stderr %q; want exit 2", code, errw.String())
	}
}

// TestBuildSnapshotV7 runs the real bench scenario once and checks the /7
// shape: the /2–/6 fields are still there (embedded metrics with their
// logical stamp, fast-path counters, campaign entry, demand-paged entry with
// the eager-vs-lazy interruption collapse, WAL data-survival audits, span
// percentiles), the saved-bytes figure is the actual bytes avoided (bounded
// by the page-granular estimate), and the new fleet pair reports per-tier
// streaming recovery with the index-assisted discovery win.
func TestBuildSnapshotV7(t *testing.T) {
	if testing.Short() {
		t.Skip("bench scenario in -short mode")
	}
	snap, err := buildSnapshot(20100413, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != benchSchemaV7 {
		t.Fatalf("schema = %q", snap.Schema)
	}
	if len(snap.Benchmarks) == 0 {
		t.Fatal("no benchmarks")
	}
	if snap.Metrics == nil || snap.Metrics.Schema != metrics.SchemaVersion {
		t.Fatalf("embedded metrics = %+v", snap.Metrics)
	}
	if snap.Metrics.LogicalNowNS == 0 {
		t.Fatal("embedded metrics snapshot lost its logical stamp")
	}
	if p := snap.Metrics.Get("resurrect_runs_total", nil); p == nil || p.Value != 1 {
		t.Fatalf("resurrect_runs_total = %+v", p)
	}
	byName := map[string]map[string]float64{}
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b.Metrics
	}
	res := byName["resurrect-parallel/mysql-x8"]
	if res == nil {
		t.Fatal("resurrect-parallel/mysql-x8 entry missing")
	}
	if res["pages-elided"] <= 0 || res["pages-deduped"] <= 0 {
		t.Fatalf("fast path idle on 8xMySQL: elided=%v deduped=%v",
			res["pages-elided"], res["pages-deduped"])
	}
	// Actual bytes avoided: positive, and never more than the page-granular
	// estimate the pre-/4 schema quoted (the old figure overcounted partial
	// tail pages of non-page-multiple regions).
	if bound := (res["pages-elided"] + res["pages-deduped"]) * 4; res["fastpath-saved-KB"] <= 0 ||
		res["fastpath-saved-KB"] > bound {
		t.Fatalf("fastpath-saved-KB = %v, want in (0, %v]", res["fastpath-saved-KB"], bound)
	}
	lazy := byName["resurrect-lazy/mysql-x8"]
	if lazy == nil {
		t.Fatal("resurrect-lazy/mysql-x8 entry missing")
	}
	if lazy["pages-speculated"] <= 0 {
		t.Fatalf("lazy install speculated nothing: %+v", lazy)
	}
	// The ISSUE acceptance floor: resuming at context install collapses the
	// modeled interruption on the warmed 8xMySQL scenario by at least 5x.
	if lazy["collapse-x"] < 5 {
		t.Fatalf("eager/lazy interruption collapse = %.2fx, want >= 5x (eager %vs, lazy %vs)",
			lazy["collapse-x"], res["serial-s"], lazy["serial-s"])
	}
	// Schema /6: first-touch stall percentiles on the lazy entry must be
	// populated and ordered.
	if lazy["first-touch-n"] <= 0 {
		t.Fatalf("lazy entry has no first-touch samples: %+v", lazy)
	}
	if !(lazy["first-touch-p50-us"] > 0 &&
		lazy["first-touch-p50-us"] <= lazy["first-touch-p95-us"] &&
		lazy["first-touch-p95-us"] <= lazy["first-touch-p99-us"]) {
		t.Fatalf("first-touch percentiles out of order: p50=%v p95=%v p99=%v",
			lazy["first-touch-p50-us"], lazy["first-touch-p95-us"], lazy["first-touch-p99-us"])
	}
	// A Table 6 row without first-touch samples has unknown percentiles:
	// they must be absent, never 0. Apache/PHP runs no lazy stall.
	if t6 := byName["table6/Apache/PHP"]; t6 == nil || t6["first-touch-n"] != 0 {
		t.Fatalf("table6/Apache/PHP = %+v, want an entry with first-touch-n 0", t6)
	}
	for name, m := range byName {
		if !strings.HasPrefix(name, "table6/") || m["first-touch-n"] > 0 {
			continue
		}
		for _, k := range []string{"first-touch-p50-us", "first-touch-p95-us", "first-touch-p99-us"} {
			if v, ok := m[k]; ok {
				t.Errorf("%s reports %s = %v with no samples", name, k, v)
			}
		}
	}
	camp := byName["campaign-parallel/vi"]
	if camp == nil {
		t.Fatal("campaign-parallel/vi entry missing")
	}
	if camp["experiments"] <= 0 {
		t.Fatalf("campaign entry empty: %+v", camp)
	}
	// Schema /6: campaign interruption percentiles must be populated and
	// ordered.
	if !(camp["interruption-p50-s"] > 0 &&
		camp["interruption-p50-s"] <= camp["interruption-p95-s"] &&
		camp["interruption-p95-s"] <= camp["interruption-p99-s"]) {
		t.Fatalf("campaign interruption percentiles out of order: %+v", camp)
	}
	wal := byName["wal-survival/walkv"]
	if wal == nil {
		t.Fatal("wal-survival/walkv entry missing")
	}
	if wal["audits-fixed"] <= 0 || wal["audits-buggy"] <= 0 {
		t.Fatalf("WAL survival entry audited nothing: %+v", wal)
	}
	if wal["violations-fixed"] != 0 {
		t.Fatalf("fixed WAL protocol lost data in the bench scenario: %+v", wal)
	}
	// Schema /7: the fleet pair. The streaming entry must report every
	// tier, the index discovery must have fed the scanners, and the batch
	// entry must pin the tier-0 first-resume win at >= 2x.
	fleet := byName["fleet-stream/mixed-256"]
	if fleet == nil {
		t.Fatal("fleet-stream/mixed-256 entry missing")
	}
	if fleet["population"] != 256 {
		t.Fatalf("fleet population = %v, want 256", fleet["population"])
	}
	if fleet["index-entries"] <= 0 {
		t.Fatalf("fleet ran without index discovery: %+v", fleet)
	}
	for _, tier := range []string{"tier0", "tier1", "tier2"} {
		if fleet[tier+"-procs"] <= 0 {
			t.Fatalf("fleet %s empty: %+v", tier, fleet)
		}
		if !(fleet[tier+"-p50-s"] > 0 &&
			fleet[tier+"-p50-s"] <= fleet[tier+"-p95-s"] &&
			fleet[tier+"-p95-s"] <= fleet[tier+"-p99-s"]) {
			t.Fatalf("fleet %s percentiles out of order: %+v", tier, fleet)
		}
	}
	batch := byName["fleet-batch/mixed-256"]
	if batch == nil {
		t.Fatal("fleet-batch/mixed-256 entry missing")
	}
	if batch["prologue-s"] <= fleet["prologue-s"] {
		t.Fatalf("index discovery prologue %vs not better than full walk %vs",
			fleet["prologue-s"], batch["prologue-s"])
	}
	if batch["tier0-stream-win-x"] < 2 {
		t.Fatalf("tier-0 streaming win = %.2fx, want >= 2x (stream %vs, batch %vs)",
			batch["tier0-stream-win-x"], fleet["tier0-first-resume-s"], batch["tier0-first-resume-s"])
	}
}

// TestBuildSnapshotKnobInvariance pins the /3 contract that the live
// -campaign-workers and -resurrect-workers knobs change host wall clock
// only: every recorded figure, the machine clock's stamp included, is a
// pure function of the seed.
func TestBuildSnapshotKnobInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("bench scenario in -short mode")
	}
	a, err := buildSnapshot(20100413, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSnapshot(20100413, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Fingerprint() != b.Metrics.Fingerprint() {
		t.Fatalf("metrics fingerprint depends on worker knobs: %s vs %s",
			a.Metrics.Fingerprint(), b.Metrics.Fingerprint())
	}
	if a.Metrics.LogicalNowNS != b.Metrics.LogicalNowNS {
		t.Fatalf("logical_now_ns depends on worker knobs: %d vs %d",
			a.Metrics.LogicalNowNS, b.Metrics.LogicalNowNS)
	}
	if len(a.Benchmarks) != len(b.Benchmarks) {
		t.Fatalf("benchmark count depends on worker knobs: %d vs %d",
			len(a.Benchmarks), len(b.Benchmarks))
	}
	for i := range a.Benchmarks {
		if a.Benchmarks[i].Name != b.Benchmarks[i].Name {
			t.Fatalf("benchmark order depends on worker knobs: %q vs %q",
				a.Benchmarks[i].Name, b.Benchmarks[i].Name)
		}
		for k, v := range a.Benchmarks[i].Metrics {
			if bv := b.Benchmarks[i].Metrics[k]; bv != v {
				t.Fatalf("%s %s depends on worker knobs: %v vs %v",
					a.Benchmarks[i].Name, k, v, bv)
			}
		}
	}
}
