package experiment

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"otherworld/internal/metrics"
)

func TestSingleExperimentOutcomes(t *testing.T) {
	// A handful of seeded experiments must complete without harness
	// errors and produce only the defined outcomes.
	for i := int64(0); i < 6; i++ {
		cfg := DefaultConfig("vi", 100+i*31)
		res := Run(cfg)
		switch res.Outcome {
		case OutcomeNoKernelFault, OutcomeSuccess, OutcomeBootFailure,
			OutcomeResurrectFailure, OutcomeDataCorruption:
		default:
			t.Fatalf("seed %d: undefined outcome %v", cfg.Machine.Seed, res.Outcome)
		}
		if res.Outcome == OutcomeSuccess && res.AckedOps == 0 {
			t.Fatalf("seed %d: success with no progress", cfg.Machine.Seed)
		}
	}
}

func TestExperimentDeterministic(t *testing.T) {
	cfg := DefaultConfig("MySQL", 777)
	a := Run(cfg)
	b := Run(cfg)
	if a.Outcome != b.Outcome || a.AckedOps != b.AckedOps {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", a.Outcome, a.AckedOps, b.Outcome, b.AckedOps)
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := DriverFor("photoshop", 1); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestSmallCampaignAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := DefaultCampaign(6, 321)
	cfg.Apps = []string{"vi"}
	cfg.SkipProtected = true
	cfg.Metrics = metrics.NewRegistry()
	rows := RunTable5(cfg)
	if len(rows) != 1 || rows[0].N != 6 {
		t.Fatalf("rows = %+v", rows)
	}
	// The registry counters mirror the tally rows exactly.
	var counted int64
	for _, p := range cfg.Metrics.Snapshot().Points {
		if p.Name == "campaign_runs_total" {
			if p.Labels["app"] != "vi" || p.Labels["pass"] != "unprotected" {
				t.Fatalf("unexpected campaign series labels: %+v", p.Labels)
			}
			counted += p.Value
		}
	}
	if counted != 6 {
		t.Fatalf("campaign_runs_total sums to %d, want 6", counted)
	}
	r := rows[0]
	sum := r.Success + r.BootFailure + r.ResurrectFail + r.CorruptNoProt
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
	out := RenderTable5(rows)
	if !strings.Contains(out, "vi") || !strings.Contains(out, "%") {
		t.Fatalf("render: %q", out)
	}
}

// TestRenderTable6Aligned renders a row with microsecond first-touch
// stalls and one without samples: every line, the header included, must
// be as many runes wide, so the first-touch column ends where its header
// does.
func TestRenderTable6Aligned(t *testing.T) {
	out := RenderTable6([]Table6Row{
		{App: "MySQL", BootTime: 87 * time.Second, Interruption: 53 * time.Second, LazyInterruption: 46 * time.Second,
			FirstTouchSamples: 12, P50FirstTouch: 6120 * time.Nanosecond, P95FirstTouch: 6120 * time.Nanosecond, P99FirstTouch: 6120 * time.Nanosecond},
		{App: "Apache/PHP", BootTime: 87 * time.Second, Interruption: 53 * time.Second, LazyInterruption: 53 * time.Second},
	})
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 || !strings.Contains(lines[1], "µs") || !strings.Contains(lines[2], "n/a n=0") {
		t.Fatalf("unexpected table:\n%s", out)
	}
	width := utf8.RuneCountInString(lines[0])
	for _, l := range lines[1:] {
		if n := utf8.RuneCountInString(l); n != width {
			t.Errorf("line %q is %d runes wide, header %d:\n%s", l, n, width, out)
		}
	}
}

// TestRenderTable5UnknownIsNotZero: a quantity over zero runs is unknown,
// so its cell reads n/a, never "0.00%", "0s" or "0/0/0s". A row with no
// successful recovery has no interruption samples; a row whose attempt
// budget found no faulted run (N == 0) has no rates at all; a skipped
// protected pass (ProtN == 0) has no protected corruption rate.
func TestRenderTable5UnknownIsNotZero(t *testing.T) {
	rows := []Table5Row{
		{App: "vi", N: 1, ProtN: 1, BootFailure: 1},
		{App: "MySQL", N: 2, ProtN: 2, Success: 1, InterruptionSamples: 2,
			MeanInterruption: 53 * time.Second, P50Interruption: 53 * time.Second,
			P95Interruption: 54 * time.Second, P99Interruption: 54 * time.Second},
		{App: "JOE", Discarded: 3, Shortfall: 2, ProtShortfall: 2},
		{App: "BLCR", N: 2, Success: 0.5, InterruptionSamples: 1,
			MeanInterruption: 53 * time.Second, P50Interruption: 53 * time.Second,
			P95Interruption: 53 * time.Second, P99Interruption: 53 * time.Second},
	}
	lines := strings.Split(RenderTable5(rows), "\n")
	vi, mysql, joe, blcr := lines[2], lines[3], lines[4], lines[5]
	if strings.Contains(vi, "0s") || strings.Count(vi, "n/a") != 2 {
		t.Fatalf("zero-success row %q: want n/a in the mean and percentile cells only", vi)
	}
	if !strings.Contains(mysql, " 53s ") || !strings.Contains(mysql, "53/54/54s") ||
		strings.Contains(mysql, "n/a") {
		t.Fatalf("successful row %q lost its interruption cells", mysql)
	}
	if strings.Contains(joe, "%") || strings.Contains(joe, "0s") || strings.Count(joe, "n/a") != 7 {
		t.Fatalf("no-run row %q: want n/a in all seven cells", joe)
	}
	if !strings.Contains(blcr, "50.00%") || !strings.Contains(blcr, "n/a / 0.00%") ||
		strings.Count(blcr, "n/a") != 1 {
		t.Fatalf("unprotected-only row %q: want n/a in the protected cell only", blcr)
	}
}

// TestBuildSpansAttachesTree: Config.BuildSpans is what puts the causal
// span tree on a recovered experiment's result (owstat timeline sets it);
// campaigns leave it off and get no tree.
func TestBuildSpansAttachesTree(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := DefaultConfig("vi", seed)
		cfg.BuildSpans = true
		if res := Run(cfg); res.Outcome != OutcomeSuccess {
			continue
		} else if res.Spans == nil {
			t.Fatalf("seed %d: recovered with BuildSpans but no span tree", seed)
		}
		cfg.BuildSpans = false
		if res := Run(cfg); res.Spans != nil {
			t.Fatalf("seed %d: span tree built without BuildSpans", seed)
		}
		return
	}
	t.Fatal("no seed in 1..20 recovered")
}

func TestTable6ShellMatchesCostModel(t *testing.T) {
	row, err := MeasureTable6("shell", 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.BootTime.Seconds() < 60 || row.BootTime.Seconds() > 70 {
		t.Fatalf("shell boot = %v", row.BootTime)
	}
	if row.Interruption.Seconds() < 50 || row.Interruption.Seconds() > 58 {
		t.Fatalf("shell interruption = %v", row.Interruption)
	}
	if row.Interruption >= row.BootTime {
		t.Fatal("interruption should beat a cold boot")
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 in -short mode")
	}
	rows, err := RunTable4(2)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table4Row{}
	for _, r := range rows {
		byApp[r.App] = r
		// Page tables dominate the data read (the paper's 60-83%).
		if r.PageTableFraction < 0.5 {
			t.Fatalf("%s page-table fraction = %v", r.App, r.PageTableFraction)
		}
		if r.KernelBytes <= 0 {
			t.Fatalf("%s kernel bytes = %d", r.App, r.KernelBytes)
		}
	}
	// The ordering property: bigger applications need more kernel data.
	if byApp["BLCR"].KernelBytes <= byApp["vi"].KernelBytes {
		t.Fatalf("BLCR (%d) should read more than vi (%d)",
			byApp["BLCR"].KernelBytes, byApp["vi"].KernelBytes)
	}
}

func TestRenderTable1Mentions(t *testing.T) {
	out := RenderTable1()
	for _, want := range []string{"Crash procedure defined", "resurrection fails", "continues"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 render missing %q:\n%s", want, out)
		}
	}
}

// TestProtectionNeverFaster is the directional property behind Table 3:
// user-space protection adds TLB misses and cycles for every benchmark
// workload. Both must be strictly positive, so a protected machine that
// silently ran unprotected fails.
func TestProtectionNeverFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("protection sweep in -short mode")
	}
	for _, app := range Table3Benchmarks {
		row, err := MeasureTable3(app, 80, 42)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if row.Overhead <= 0 {
			t.Fatalf("%s: protection overhead %v, want > 0", app, row.Overhead)
		}
		if row.TLBMissIncrease <= 0 {
			t.Fatalf("%s: protection TLB-miss increase %v, want > 0", app, row.TLBMissIncrease)
		}
	}
}
