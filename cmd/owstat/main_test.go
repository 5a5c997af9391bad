package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/experiment"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/workload"

	_ "otherworld/internal/apps" // register the paper's applications
)

// crashDump boots a machine, runs a small workload, crashes the kernel, and
// captures a KDump image, returning the dump written to a host temp file.
// When corruptLast is set, a wild write lands mid-payload in the metrics
// segment's last occupied page before the dump is taken — the dirtiest
// post-mortem input owstat must survive.
func crashDump(t *testing.T, corruptLast bool) string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 1234
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	d, err := experiment.DriverFor("vi", opts.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(m); err != nil {
		t.Fatal(err)
	}
	workload.RunUntilIdle(m, d, 60, 2000)

	// Inflate the registry past one segment page so a single corrupted page
	// still leaves intact survivors to recover.
	reg := m.Metrics()
	for i := 0; i < 160; i++ {
		reg.Counter("zz_filler_total", "padding series for the multi-page test",
			metrics.Labels{"i": fmt.Sprintf("%03d", i)}).Inc()
	}
	m.FlushMetrics()

	if corruptLast {
		region := m.MetricsRegion()
		seg := metrics.ParseSegment(m.HW.Mem, region)
		if seg.Pages < 2 {
			t.Fatalf("segment only %d pages; filler did not overflow a page", seg.Pages)
		}
		last := region.Start + seg.Pages - 1
		addr := phys.FrameAddr(last) + 200
		if err := m.HW.Mem.WriteAt(addr, []byte("wild write from the dying kernel")); err != nil {
			t.Fatalf("corrupting page %d: %v", last, err)
		}
	}

	if err := m.K.InjectOops("owstat test crash"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailureKDump("/var/crash/vmcore")
	if err != nil {
		t.Fatalf("HandleFailureKDump: %v", err)
	}
	if out.Transfer != core.ResultRecovered {
		t.Fatalf("capture kernel never got control: %+v", out.Transfer)
	}
	data, err := m.FS.ReadFile(out.DumpPath)
	if err != nil {
		t.Fatalf("read dump from guest FS: %v", err)
	}
	path := filepath.Join(t.TempDir(), "vmcore")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runOwstat(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRecoverFromCleanDump(t *testing.T) {
	dumpPath := crashDump(t, false)
	jsonPath := filepath.Join(t.TempDir(), "recovered.json")
	code, out, errw := runOwstat(t, "recover", "-json", jsonPath, dumpPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "0 corrupted") {
		t.Fatalf("clean dump reported corruption:\n%s", out)
	}
	for _, want := range []string{"kernel_steps_total", "phys_read_ops_total", "zz_filler_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("recovered render missing %s:\n%s", want, out)
		}
	}
	// The -json side file must round-trip through the versioned codec.
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := metrics.DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Get("kernel_steps_total", nil); p == nil || p.Value == 0 {
		t.Fatalf("recovered JSON missing live step counter: %+v", p)
	}
}

// TestRecoverCorruptedCountedNotFatal is the acceptance criterion: a wild
// write into the metrics segment costs only the hit page — owstat counts it,
// warns, and still renders every intact page.
func TestRecoverCorruptedCountedNotFatal(t *testing.T) {
	dumpPath := crashDump(t, true)
	code, out, errw := runOwstat(t, "recover", dumpPath)
	if code != 0 {
		t.Fatalf("corrupted segment was fatal: exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "1 corrupted") || !strings.Contains(out, "warning:") {
		t.Fatalf("corruption not counted/reported:\n%s", out)
	}
	// The first page holds the alphabetically-first series; it must survive.
	if !strings.Contains(out, "kernel_steps_total") {
		t.Fatalf("intact page not recovered:\n%s", out)
	}
}

func sampleFile(t *testing.T, name string, mutate func(r *metrics.Registry)) string {
	t.Helper()
	r := metrics.NewRegistry()
	r.SetNow(5000)
	r.Counter("ops_total", "operations", nil).Add(42)
	r.Gauge("fill_ratio", "occupancy", nil).Set(0.5)
	if mutate != nil {
		mutate(r)
	}
	data, err := r.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderSnapshotFile(t *testing.T) {
	path := sampleFile(t, "snap.json", nil)
	code, out, _ := runOwstat(t, "render", path)
	if code != 0 || !strings.Contains(out, "ops_total") || !strings.Contains(out, "42") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	code, out, _ = runOwstat(t, "render", "-prom", path)
	if code != 0 || !strings.Contains(out, "# TYPE ops_total counter") {
		t.Fatalf("prom render exit %d:\n%s", code, out)
	}
}

func TestDiffExitCodes(t *testing.T) {
	a := sampleFile(t, "a.json", nil)
	code, out, _ := runOwstat(t, "diff", a, a)
	if code != 0 || !strings.Contains(out, "identical") {
		t.Fatalf("self-diff: exit %d\n%s", code, out)
	}
	b := sampleFile(t, "b.json", func(r *metrics.Registry) {
		r.Counter("ops_total", "operations", nil).Add(8)
	})
	code, out, _ = runOwstat(t, "diff", a, b)
	if code != 1 {
		t.Fatalf("differing snapshots: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "ops_total") || !strings.Contains(out, "50") {
		t.Fatalf("delta not rendered:\n%s", out)
	}
}

func TestBadInputs(t *testing.T) {
	if code, _, _ := runOwstat(t); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code, _, _ := runOwstat(t, "explode"); code != 2 {
		t.Fatalf("unknown subcommand: exit %d, want 2", code)
	}
	if code, _, errw := runOwstat(t, "render", "/does/not/exist.json"); code != 1 || errw == "" {
		t.Fatalf("missing file: exit %d stderr %q", code, errw)
	}
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("{\"schema\":\"bogus/9\"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runOwstat(t, "render", junk); code != 1 {
		t.Fatalf("wrong schema: exit %d, want 1", code)
	}
	// Each invocation is refused with exit 2 before anything runs; exit 1
	// is for a command that ran and failed.
	for _, tc := range []struct {
		args []string
		want string
	}{
		// One application is one candidate, so a pool width cannot act.
		{[]string{"timeline", "-app", "vi", "-resurrect-workers", "4"}, "-resurrect-workers"},
		// An unknown application is not run and reported as a failed
		// recovery.
		{[]string{"timeline", "-app", "nosuch"}, `unknown application "nosuch"`},
		// A negative population used to run the default mysql-x8 scenario.
		{[]string{"timeline", "-fleet", "-3"}, "-fleet -3"},
		{[]string{"timeline", "-tiers", "sh=1"}, "-tiers"},
		// An experiment tree analyzes at the canonical width only.
		{[]string{"timeline", "-app", "vi", "-analysis-workers", "3"}, "-analysis-workers"},
		{[]string{"timeline", "-bogus"}, "-bogus"},
		{[]string{"timeline", "extra"}, "extra"},
		{[]string{"render", "-bogus", "x"}, "-bogus"},
	} {
		if code, out, errw := runOwstat(t, tc.args...); code != 2 || out != "" || !strings.Contains(errw, tc.want) {
			t.Errorf("%v: exit %d stdout %q stderr %q; want exit 2 and %q", tc.args, code, out, errw, tc.want)
		}
	}
	// The flag package writes -h's flag list to the writer run is given.
	if code, out, errw := runOwstat(t, "timeline", "-h"); code != 0 || out != "" || !strings.Contains(errw, "-perfetto") {
		t.Errorf("timeline -h: exit %d stdout %q stderr %q; want exit 0 and the flag list on stderr", code, out, errw)
	}
}
