package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
)

// TestPassSeedSpacesDisjoint proves the campaign's seed-space claim: the
// ranges scanned by every (application, pass) combination must not overlap.
// The old additive salts (i*1_000_000 for the app, +500_000 for the
// protected pass) were smaller than a pass's seed span (3*PerApp*7919), so
// with PerApp >= ~22 the protected pass replayed the unprotected pass's
// seeds — correlated campaigns pretending to be independent.
func TestPassSeedSpacesDisjoint(t *testing.T) {
	const apps = 5
	const passes = 2
	for _, perApp := range []int{100, 400, 100_000, 10_000_000} {
		span := int64(3*perApp) * 7919
		type rng struct {
			lo, hi int64
			name   string
		}
		var ranges []rng
		for app := 0; app < apps; app++ {
			for pass := 0; pass < passes; pass++ {
				salt := passSeedSalt(app, pass, passes)
				ranges = append(ranges, rng{salt, salt + span,
					fmt.Sprintf("app%d/pass%d", app, pass)})
			}
		}
		for i := range ranges {
			for j := i + 1; j < len(ranges); j++ {
				a, b := ranges[i], ranges[j]
				if a.lo < b.hi && b.lo < a.hi {
					t.Errorf("perApp=%d: %s [%d,%d) overlaps %s [%d,%d)",
						perApp, a.name, a.lo, a.hi, b.name, b.lo, b.hi)
				}
			}
		}
	}
}

// TestCampaignSeedsDisjoint checks disjointness end to end: a stubbed
// campaign records every seed each pass actually runs, and no seed may
// appear in two passes.
func TestCampaignSeedsDisjoint(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int64]string) // seed -> pass that used it
	cfg := DefaultCampaign(5, 12345)
	cfg.Apps = []string{"vi", "JOE"}
	cfg.CampaignWorkers = 2
	cfg.runExperiment = func(ecfg Config) Result {
		pass := fmt.Sprintf("%s/prot=%v", ecfg.App, ecfg.Machine.UserSpaceProtection)
		mu.Lock()
		if prev, dup := seen[ecfg.Machine.Seed]; dup && prev != pass {
			t.Errorf("seed %d used by both %s and %s", ecfg.Machine.Seed, prev, pass)
		}
		seen[ecfg.Machine.Seed] = pass
		mu.Unlock()
		return Result{Outcome: OutcomeSuccess}
	}
	rows := RunTable5(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.N != 5 || r.ProtN != 5 {
			t.Fatalf("%s: N=%d ProtN=%d, want 5/5", r.App, r.N, r.ProtN)
		}
	}
	if len(seen) == 0 {
		t.Fatal("stub never ran")
	}
}

// TestCampaignUndershootReported stubs a campaign whose injections never
// manifest: the pass exhausts its want*3 attempt budget with n < want, and
// that shortfall must be recorded on the row instead of silently shrinking
// the denominators.
func TestCampaignUndershootReported(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	cfg := DefaultCampaign(4, 99)
	cfg.Apps = []string{"vi"}
	cfg.CampaignWorkers = 1
	cfg.runExperiment = func(ecfg Config) Result {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n%2 == 1 {
			// Half the attempts manifest a fault...
			return Result{Outcome: OutcomeSuccess}
		}
		// ...the other half are discarded no-fault runs.
		return Result{Outcome: OutcomeNoKernelFault}
	}
	rows := RunTable5(cfg)
	r := rows[0]
	// 12 attempts, 6 faulted: want=4 is met by the unprotected pass, so
	// no shortfall there.
	if r.Shortfall != 0 {
		t.Fatalf("unexpected unprotected shortfall %d (N=%d)", r.Shortfall, r.N)
	}

	// Now a campaign where nothing ever manifests.
	cfg.runExperiment = func(Config) Result {
		return Result{Outcome: OutcomeNoKernelFault,
			Attribution: attribute(StageNoFault, "", "injected faults never manifested", nil, nil)}
	}
	rows = RunTable5(cfg)
	r = rows[0]
	if r.N != 0 {
		t.Fatalf("N = %d, want 0", r.N)
	}
	if r.Shortfall != 4 || r.ProtShortfall != 4 {
		t.Fatalf("Shortfall = %d/%d, want 4/4", r.Shortfall, r.ProtShortfall)
	}
	warns := Shortfalls(rows)
	if len(warns) != 2 {
		t.Fatalf("Shortfalls = %v, want one warning per pass", warns)
	}
	if !strings.Contains(warns[0], "vi") || !strings.Contains(warns[0], "attempt budget") {
		t.Fatalf("warning lacks context: %q", warns[0])
	}
}

// TestNegativeCampaignSizeRunsNothing: a pass asked for fewer than one
// faulted run runs nothing, as a size of 0 does, and its row renders n/a in
// every cell. A negative size used to panic sizing the attempt slots.
func TestNegativeCampaignSizeRunsNothing(t *testing.T) {
	cfg := DefaultCampaign(-1, 7)
	cfg.Apps = []string{"vi"}
	cfg.runExperiment = func(Config) Result {
		t.Error("a campaign of size -1 ran an experiment")
		return Result{Outcome: OutcomeSuccess}
	}
	rows, stats := RunTable5Campaign(cfg)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.N != 0 || r.ProtN != 0 || r.Discarded != 0 || r.Shortfall != 0 ||
		r.ProtShortfall != 0 || stats.Experiments != 0 {
		t.Fatalf("row %+v, %d experiments: want an empty row and none run", r, stats.Experiments)
	}
	row := strings.Split(RenderTable5(rows), "\n")[2]
	if strings.Count(row, "n/a") != 7 {
		t.Fatalf("row %q: want n/a in all seven cells", row)
	}
}

// TestBaselineCampaignHasNoOutage: a cold reboot models no outage, so a
// baseline pass counts no interruption samples and renders n/a in both
// interruption cells, where an Otherworld pass counts one outage per
// success. The baseline rows used to average zeros and print 0s.
func TestBaselineCampaignHasNoOutage(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		cfg := DefaultCampaign(4, 7)
		cfg.Apps = []string{"WAL"}
		cfg.SkipProtected = true
		cfg.Baseline = baseline
		cfg.runExperiment = func(ecfg Config) Result {
			if ecfg.Baseline {
				return Result{Outcome: OutcomeSuccess}
			}
			return Result{Outcome: OutcomeSuccess, Interruption: 53 * time.Second}
		}
		rows := RunTable5(cfg)
		r := rows[0]
		cells := strings.Fields(strings.Split(RenderTable5(rows), "\n")[2])
		outage := strings.Join(cells[len(cells)-2:], " ")
		want, wantN := "53s 53/53/53s", 4
		if baseline {
			want, wantN = "n/a n/a", 0
		}
		if r.InterruptionSamples != wantN || outage != want {
			t.Errorf("baseline=%v: %d outages rendered %q, want %d and %q",
				baseline, r.InterruptionSamples, outage, wantN, want)
		}
	}
}

// TestTopReasonsNumericOrder reproduces the lexicographic-sort bug: with a
// 10000-count reason and a 9999-count reason, string sorting put " 9999x"
// above "10000x". The fixed sort is numeric, with deterministic tiebreak.
func TestTopReasonsNumericOrder(t *testing.T) {
	mk := func(reason string, n int) AttributionCount {
		return AttributionCount{
			Attribution: Attribution{Stage: StageTransfer, Reason: reason},
			Count:       n,
		}
	}
	rows := []Table5Row{{
		App: "vi",
		Attributions: []AttributionCount{
			mk("rare", 3),
			mk("common", 10000),
			mk("frequent", 9999),
			mk("tie-b", 7),
			mk("tie-a", 7),
		},
	}}
	got := TopReasons(rows)
	if len(got) != 5 {
		t.Fatalf("got %d reasons, want 5", len(got))
	}
	wantOrder := []string{"common", "frequent", "tie-a", "tie-b", "rare"}
	for i, w := range wantOrder {
		if !strings.Contains(got[i], w) {
			t.Fatalf("position %d = %q, want reason %q (full: %v)", i, got[i], w, got)
		}
	}
	if !strings.HasPrefix(strings.TrimSpace(got[0]), "10000x") {
		t.Fatalf("top reason = %q, want the 10000-count one first", got[0])
	}
}

// TestCampaignAttributionAggregation checks that stubbed failures aggregate
// by structured attribution, sorted most-frequent first.
func TestCampaignAttributionAggregation(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	cfg := DefaultCampaign(6, 7)
	cfg.Apps = []string{"vi"}
	cfg.CampaignWorkers = 1
	cfg.SkipProtected = true
	cfg.runExperiment = func(Config) Result {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n%3 == 0 {
			return Result{Outcome: OutcomeBootFailure,
				Attribution: attribute(StageTransfer, "", "no watchdog", nil, nil)}
		}
		return Result{Outcome: OutcomeResurrectFailure,
			Attribution: attribute(StageResurrect, "page-copy", "bad frame 0x1a2b", nil, nil)}
	}
	rows := RunTable5(cfg)
	r := rows[0]
	if len(r.Attributions) != 2 {
		t.Fatalf("attributions = %+v, want 2 modes", r.Attributions)
	}
	top := r.Attributions[0]
	if top.Stage != StageResurrect || top.Phase != "page-copy" {
		t.Fatalf("top attribution = %+v, want the resurrect/page-copy mode", top)
	}
	if top.Count <= r.Attributions[1].Count {
		t.Fatalf("attributions not sorted by count: %+v", r.Attributions)
	}
	// The hex address must have been normalized away so repeats aggregate.
	if strings.Contains(top.Reason, "0x1a2b") {
		t.Fatalf("reason not normalized: %q", top.Reason)
	}
}

// TestWarmupOpsNonNegativeSeed pins the negative-seed fix: Go's % keeps the
// dividend's sign, so 40 + int(seed%97) used to drop below the 40-op floor
// (to -56 at worst) for negative seeds.
func TestWarmupOpsNonNegativeSeed(t *testing.T) {
	for _, seed := range []int64{0, 1, 96, 97, -1, -96, -97, -1 << 62} {
		got := warmupOps(seed)
		if got < 40 || got > 136 {
			t.Errorf("warmupOps(%d) = %d, want within [40,136]", seed, got)
		}
	}
	// Congruent seeds must warm up identically regardless of sign wrap.
	if warmupOps(-97) != warmupOps(0) || warmupOps(-1) != warmupOps(96) {
		t.Error("warmupOps not congruent mod 97 across signs")
	}
}

// TestCampaignForwardsEveryKnob: every knob the campaign forwards reaches
// the core.Options of each experiment's machine. Each is set away from its
// default, so a dropped forward leaves the default behind and the options
// differ.
func TestCampaignForwardsEveryKnob(t *testing.T) {
	hard := kernel.Hardening{DoubleFaultMicroreboot: true, NoTrustCurrent: true}
	cfg := DefaultCampaign(3, 7)
	cfg.Apps = []string{"vi", "MySQL"}
	cfg.CampaignWorkers = 2
	cfg.Hardening = hard
	cfg.VerifyCRC = false
	cfg.ResurrectWorkers = 3
	cfg.LazyInstall = true
	cfg.IndexSlots = 64
	cfg.DiskCrash = true
	cfg.Baseline = true
	var mu sync.Mutex
	passes := make(map[string]bool)
	cfg.runExperiment = func(ecfg Config) Result {
		want := core.DefaultOptions()
		want.Seed = ecfg.Machine.Seed
		want.UserSpaceProtection = ecfg.Machine.UserSpaceProtection
		want.Hardening = hard
		want.VerifyCRC = false
		want.Resurrection.Workers = 3
		want.LazyInstall = true
		want.CandidateIndexSlots = 64
		want.DiskCrash.Enabled = true
		if w := (Config{App: ecfg.App, Machine: want, Baseline: true}); !reflect.DeepEqual(ecfg, w) {
			t.Errorf("experiment config:\n got %+v\nwant %+v", ecfg, w)
		}
		mu.Lock()
		passes[fmt.Sprintf("%s/prot=%v", ecfg.App, ecfg.Machine.UserSpaceProtection)] = true
		mu.Unlock()
		return Result{Outcome: OutcomeSuccess}
	}
	RunTable5(cfg)
	for _, app := range cfg.Apps {
		for _, prot := range []bool{false, true} {
			if pass := fmt.Sprintf("%s/prot=%v", app, prot); !passes[pass] {
				t.Errorf("%s ran no experiment", pass)
			}
		}
	}
}

// TestCampaignProgressTicks: Progress sees one tick per committed
// experiment, in commit order, ending at the pass's quota.
func TestCampaignProgressTicks(t *testing.T) {
	cfg := DefaultCampaign(3, 5)
	cfg.Apps = []string{"vi"}
	cfg.SkipProtected = true
	cfg.CampaignWorkers = 2
	cfg.runExperiment = func(ecfg Config) Result {
		if ecfg.Machine.Seed%2 == 0 {
			return Result{Outcome: OutcomeNoKernelFault}
		}
		return Result{Outcome: OutcomeSuccess}
	}
	var ticks []ProgressUpdate // Progress runs under the pass's commit lock
	cfg.Progress = func(u ProgressUpdate) { ticks = append(ticks, u) }
	rows := RunTable5(cfg)
	for i, u := range ticks {
		if u.App != "vi" || u.Protected || u.Want != 3 || u.Attempted != i+1 ||
			u.Faulted+u.Discarded != u.Attempted {
			t.Fatalf("tick %d = %+v", i, u)
		}
	}
	if len(ticks) == 0 {
		t.Fatal("no progress ticks")
	}
	if last := ticks[len(ticks)-1]; last.Faulted != 3 || last.Discarded != rows[0].Discarded {
		t.Fatalf("last tick %+v, row discarded %d", last, rows[0].Discarded)
	}
}
