package resurrect_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
)

// counterVal reads a (possibly labeled) counter out of a snapshot, treating
// an absent series as zero.
func counterVal(snap *metrics.Snapshot, name string, ls metrics.Labels) int64 {
	if p := snap.Get(name, ls); p != nil {
		return p.Value
	}
	return 0
}

// --- Satellite: saved-bytes accounting on partial tail pages ---------------

// sbProg maps a deliberately non-page-multiple region — two pages plus a
// 100-byte tail — and faults in three pages:
//
//	page 0: a dense non-zero pattern (ordinary copy);
//	page 1: all zero, fully covered by the region (elides, saves 4096);
//	page 2: all zero, but the region covers only its first 100 bytes
//	        (elides, saves 100 — the regression: the old accounting charged
//	        a frame-sized 4096 for it).
type sbProg struct{}

const (
	sbVA   = 0xA0000
	sbTail = 100
)

func (sbProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(sbVA, 2*phys.PageSize+sbTail, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	pattern := make([]byte, phys.PageSize)
	for i := range pattern {
		pattern[i] = byte(i%253) + 1
	}
	if err := env.Write(sbVA, pattern); err != nil {
		return err
	}
	// Zero writes fault the pages in without making them non-zero.
	if err := env.Write(sbVA+phys.PageSize, make([]byte, phys.PageSize)); err != nil {
		return err
	}
	return env.Write(sbVA+2*phys.PageSize, make([]byte, sbTail))
}

func (sbProg) Step(env *kernel.Env) error {
	env.Compute(10)
	return nil
}

func (sbProg) Rehydrate(env *kernel.Env) error { return nil }

func init() {
	kernel.RegisterProgram("sb-prog", func() kernel.Program { return sbProg{} })
}

// TestSavedBytesPartialTailPage is the saved-bytes regression test: elision
// of the 100-byte tail page of a non-page-multiple region must be accounted
// as 100 bytes avoided, not a frame-sized 4096. The counter and the
// per-process report must agree on the actual figure.
func TestSavedBytesPartialTailPage(t *testing.T) {
	m := newMachine(t)
	if _, err := m.Start("sb", "sb-prog"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	out := recoverOutcome(t, m)
	if len(out.Report.Procs) != 1 {
		t.Fatalf("procs = %d, want 1", len(out.Report.Procs))
	}
	pr := out.Report.Procs[0]
	if pr.Outcome != resurrect.OutcomeContinued {
		t.Fatalf("outcome = %v (err %v)", pr.Outcome, pr.Err)
	}
	if pr.PagesElided != 2 {
		t.Fatalf("elided = %d, want 2 (full zero page + zero tail page)", pr.PagesElided)
	}
	const wantSaved = phys.PageSize + sbTail
	if pr.SavedBytes != wantSaved {
		t.Fatalf("SavedBytes = %d, want %d (the old page-granular accounting said %d)",
			pr.SavedBytes, wantSaved, 2*phys.PageSize)
	}
	if got := counterVal(m.MetricsSnapshot(), "resurrect_fastpath_saved_bytes_total", nil); got != wantSaved {
		t.Fatalf("resurrect_fastpath_saved_bytes_total = %d, want %d", got, wantSaved)
	}
}

// --- Lazy install: resolution by touch and sweep ---------------------------

// lazyFPMachine is fpMachine with the demand-paged install enabled: two
// fp-prog processes, each with one zero page (elided even under lazy), one
// shared-pattern page and one boundary page (both speculated).
func lazyFPMachine(t *testing.T) (*core.Machine, *core.FailureOutcome) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 128 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = 31
	opts.LazyInstall = true
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := m.Start("fp-a", "fp-prog"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("fp-b", "fp-prog"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	out := recoverOutcome(t, m)
	if len(out.Report.Procs) != 2 {
		t.Fatalf("resurrected %d procs, want 2", len(out.Report.Procs))
	}
	return m, out
}

// TestLazyInstallResolvesOnTouchAndSweep drives one speculated page through
// the demand-fault path and lets the background sweeper drain the rest: the
// contents must be exactly what the eager install would have produced, every
// dead frame must be released, and the trigger-labeled counters must account
// for every speculated page.
func TestLazyInstallResolvesOnTouchAndSweep(t *testing.T) {
	m, out := lazyFPMachine(t)
	total := 0
	for _, pr := range out.Report.Procs {
		if pr.Outcome != resurrect.OutcomeContinued {
			t.Fatalf("pid %d outcome = %v (err %v)", pr.Candidate.PID, pr.Outcome, pr.Err)
		}
		if pr.SpecFallback != "" {
			t.Fatalf("pid %d unexpectedly fell back: %s", pr.Candidate.PID, pr.SpecFallback)
		}
		if pr.PagesSpeculated != 2 {
			t.Fatalf("pid %d speculated %d pages, want 2 (pattern + boundary; zero page elides)",
				pr.Candidate.PID, pr.PagesSpeculated)
		}
		if pr.PagesElided != 1 {
			t.Fatalf("pid %d elided %d pages, want 1", pr.Candidate.PID, pr.PagesElided)
		}
		total += pr.PagesSpeculated
	}

	// First touch: read the shared page of the first process through the VM
	// path — this demand-faults the speculated PTE and resolves it now.
	pa := m.K.Lookup(out.Report.Procs[0].NewPID)
	if pa == nil {
		t.Fatal("first resurrected process not found")
	}
	got := make([]byte, phys.PageSize)
	if err := m.K.ReadVM(pa, fpVA, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fpSharedPattern()) {
		t.Fatal("first-touch resolution produced wrong page contents")
	}
	snap := m.MetricsSnapshot()
	if v := counterVal(snap, "resurrect_spec_resolved_total", metrics.Labels{"trigger": "touch"}); v != 1 {
		t.Fatalf("resolved{touch} = %d, want 1", v)
	}
	if p := snap.Get("resurrect_first_touch_ns", nil); p == nil || p.Count != 1 {
		t.Fatalf("first-touch histogram = %+v, want one observation", p)
	}

	// The background sweeper drains the remainder while the programs run.
	m.Run(50)
	snap = m.MetricsSnapshot()
	touch := counterVal(snap, "resurrect_spec_resolved_total", metrics.Labels{"trigger": "touch"})
	sweep := counterVal(snap, "resurrect_spec_resolved_total", metrics.Labels{"trigger": "sweep"})
	if touch+sweep != int64(total) || sweep == 0 {
		t.Fatalf("resolved touch=%d sweep=%d, want touch+sweep=%d with sweep>0", touch, sweep, total)
	}
	if v := counterVal(snap, "resurrect_spec_resolved_total", metrics.Labels{"trigger": "fallback"}); v != 0 {
		t.Fatalf("resolved{fallback} = %d, want 0", v)
	}
	if n := m.HW.Mem.CountKind(phys.FrameSpeculated); n != 0 {
		t.Fatalf("%d frames still tagged speculated after the sweep", n)
	}

	// Page-by-page: identical to what the eager install guarantees.
	zeros := make([]byte, phys.PageSize)
	for _, pr := range out.Report.Procs {
		np := m.K.Lookup(pr.NewPID)
		if np == nil {
			t.Fatalf("pid %d not found", pr.NewPID)
		}
		if err := m.K.ReadVM(np, fpVA, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fpSharedPattern()) {
			t.Fatalf("pid %d: pattern page corrupted by lazy resolution", np.PID)
		}
		if err := m.K.ReadVM(np, fpVA+phys.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zeros) {
			t.Fatalf("pid %d: elided page not zero-filled", np.PID)
		}
		if err := m.K.ReadVM(np, fpVA+2*phys.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if want := byte(0x80 | byte(pr.Candidate.PID)); got[phys.PageSize-1] != want {
			t.Fatalf("pid %d: boundary tail = %#x, want %#x", np.PID, got[phys.PageSize-1], want)
		}
	}
}

// --- Lazy determinism and the interruption collapse ------------------------

// lazyMySQLMachine is multiMySQLMachine with the demand-paged install on.
func lazyMySQLMachine(t *testing.T, workers int) *core.Machine {
	t.Helper()
	return mysqlMachine(t, 8, workers, true)
}

// TestLazyDeterminismAcrossWorkers extends the tentpole invariant to the
// demand-paged install: the Report fingerprint, the Table 4 accounting, the
// full metrics snapshot and the machine clock must be identical at
// Workers=1 and Workers=8 with -lazy-install. The clock counts the full
// installs, so the outage is not InterruptionAt here. The Workers=1
// fingerprint is golden-pinned separately from the eager one.
func TestLazyDeterminismAcrossWorkers(t *testing.T) {
	m1 := lazyMySQLMachine(t, 1)
	m8 := lazyMySQLMachine(t, 8)
	out1 := recoverOutcome(t, m1)
	out8 := recoverOutcome(t, m8)
	rep1, rep8 := out1.Report, out8.Report

	spec := 0
	for _, pr := range rep1.Procs {
		spec += pr.PagesSpeculated
	}
	if spec == 0 {
		t.Fatal("lazy install speculated nothing on the 8xMySQL scenario")
	}

	fp1, fp8 := rep1.Fingerprint(), rep8.Fingerprint()
	if fp1 != fp8 {
		t.Fatalf("lazy fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", fp1, fp8)
	}
	if !reflect.DeepEqual(rep1.Acct.ByCategory, rep8.Acct.ByCategory) {
		t.Fatalf("accounting differs:\nw1: %v\nw8: %v", rep1.Acct.ByCategory, rep8.Acct.ByCategory)
	}
	if mfp1, mfp8 := m1.MetricsSnapshot().Fingerprint(), m8.MetricsSnapshot().Fingerprint(); mfp1 != mfp8 {
		t.Fatalf("metrics fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", mfp1, mfp8)
	}
	requireSameClock(t, m1, m8, out1, out8)

	golden := filepath.Join("testdata", "fingerprint_mysql_x8_lazy.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(fp1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if fp1 != string(want) {
		t.Errorf("lazy fingerprint drifted from golden (re-run with -update if intentional):\ngot:\n%s", fp1)
	}
}

// TestLazyInterruptionCollapse is the acceptance criterion: on the warmed
// 8xMySQL scenario, resuming each process at context install collapses the
// modeled per-process interruption (Report.Duration, the sum of blocked
// spans) by at least 5x against the eager full-copy install.
func TestLazyInterruptionCollapse(t *testing.T) {
	eager := recoverOutcome(t, multiMySQLMachine(t, 1)).Report
	lazy := recoverOutcome(t, lazyMySQLMachine(t, 1)).Report
	if lazy.Duration <= 0 {
		t.Fatalf("lazy duration = %v", lazy.Duration)
	}
	if ratio := float64(eager.Duration) / float64(lazy.Duration); ratio < 5 {
		t.Fatalf("interruption collapse = %.2fx, want >= 5x (eager %v, lazy %v)",
			ratio, eager.Duration, lazy.Duration)
	}
	// Per-candidate: no lazy blocked span may exceed its eager counterpart.
	if len(eager.PerCandidate) != len(lazy.PerCandidate) {
		t.Fatalf("candidate counts differ: %d vs %d", len(eager.PerCandidate), len(lazy.PerCandidate))
	}
	for i := range eager.PerCandidate {
		if lazy.PerCandidate[i] > eager.PerCandidate[i] {
			t.Fatalf("candidate %d: lazy blocked span %v exceeds eager %v",
				i, lazy.PerCandidate[i], eager.PerCandidate[i])
		}
	}
}

// --- Corruption-fallback battery -------------------------------------------

// TestLazyValidationFallbackMatchesEager re-tags every dead user frame as
// reserved before the microreboot, so the lazy install's frame validation
// refuses every candidate. The run must degrade to exactly the eager result:
// a byte-identical Report fingerprint, zero speculated pages, and the
// refusal kept as structured attribution with install-stage accounting.
func TestLazyValidationFallbackMatchesEager(t *testing.T) {
	build := func(lazyInstall bool) *core.Machine {
		opts := core.DefaultOptions()
		opts.HW = hw.Config{MemoryBytes: 128 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
		opts.CrashRegionMB = 16
		opts.Seed = 31
		opts.LazyInstall = lazyInstall
		m, err := core.NewMachine(opts)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		for _, name := range []string{"fp-a", "fp-b"} {
			if _, err := m.Start(name, "fp-prog"); err != nil {
				t.Fatal(err)
			}
		}
		m.Run(20)
		if err := m.K.InjectOops("validation fallback"); err == nil {
			t.Fatal("InjectOops returned nil")
		}
		// The trigger, applied identically to both machines: every dead user
		// frame loses its FrameUser tag, so vetSpeculation refuses to adopt.
		for f := 0; f < m.HW.Mem.NumFrames(); f++ {
			if m.HW.Mem.Kind(f) == phys.FrameUser {
				if err := m.HW.Mem.SetKind(f, phys.FrameReserved); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m
	}
	recover := func(m *core.Machine) *core.FailureOutcome {
		t.Helper()
		out, err := m.HandleFailure()
		if err != nil {
			t.Fatalf("HandleFailure: %v", err)
		}
		if out.Result != core.ResultRecovered {
			t.Fatalf("transfer failed: %s", out.Transfer.Reason)
		}
		return out
	}
	eagerOut := recover(build(false))
	mLazy := build(true)
	lazyOut := recover(mLazy)

	for _, pr := range lazyOut.Report.Procs {
		if pr.PagesSpeculated != 0 {
			t.Fatalf("pid %d speculated %d pages despite the refused validation", pr.Candidate.PID, pr.PagesSpeculated)
		}
		if !strings.HasPrefix(pr.SpecFallback, "frame-validation:") {
			t.Fatalf("pid %d SpecFallback = %q, want a frame-validation attribution", pr.Candidate.PID, pr.SpecFallback)
		}
	}
	if got, want := lazyOut.Report.Fingerprint(), eagerOut.Report.Fingerprint(); got != want {
		t.Fatalf("all-fallback lazy run does not fingerprint like the eager run:\n--- eager ---\n%s\n--- lazy ---\n%s", want, got)
	}
	snap := mLazy.MetricsSnapshot()
	if v := counterVal(snap, "resurrect_spec_fallbacks_total", metrics.Labels{"stage": "install"}); v != 2 {
		t.Fatalf("spec_fallbacks{install} = %d, want 2", v)
	}
	if v := counterVal(snap, "resurrect_pages_speculated_total", nil); v != 0 {
		t.Fatalf("pages_speculated_total = %d, want 0", v)
	}
}

// ptePhysAddr returns the physical address of p's page-table entry for va
// in the (dead) image the process's page directory points into.
func ptePhysAddr(t *testing.T, m *core.Machine, p *kernel.Process, va uint64) uint64 {
	t.Helper()
	dir, table, _, ok := layout.VirtSplit(va)
	if !ok {
		t.Fatalf("va %#x outside the mappable range", va)
	}
	dirEnt, err := m.HW.Mem.ReadU64(p.D.PageDir + uint64(dir)*layout.PTESize)
	if err != nil || dirEnt == 0 {
		t.Fatalf("pid %d: no page table for %#x (%v)", p.PID, va, err)
	}
	return dirEnt + uint64(table)*layout.PTESize
}

// TestLazySharedFrameRefusedInEitherPass aliases the second fp-prog's
// pattern-page PTE onto the first one's frame in the dead image, so two lazy
// candidates' plans name the same dead frame. Whichever candidate commits
// first speculates the frame, and its install adopts it (tagging it
// FrameSpeculated) before the second candidate is classified. The second must
// still be refused for the earlier speculation — not for the frame's new tag
// — in both the batch and the streamed pass.
func TestLazySharedFrameRefusedInEitherPass(t *testing.T) {
	for _, stream := range []bool{false, true} {
		name := "batch"
		if stream {
			name = "stream"
		}
		t.Run(name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.HW = hw.Config{MemoryBytes: 128 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
			opts.CrashRegionMB = 16
			opts.Seed = 31
			opts.LazyInstall = true
			opts.Resurrection.Stream = stream
			m, err := core.NewMachine(opts)
			if err != nil {
				t.Fatalf("NewMachine: %v", err)
			}
			pa, err := m.Start("fp-a", "fp-prog")
			if err != nil {
				t.Fatal(err)
			}
			pb, err := m.Start("fp-b", "fp-prog")
			if err != nil {
				t.Fatal(err)
			}
			m.Run(20)
			if err := m.K.InjectOops("shared frame"); err == nil {
				t.Fatal("InjectOops returned nil")
			}
			pte, err := m.HW.Mem.ReadU64(ptePhysAddr(t, m, pa, fpVA))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.HW.Mem.WriteU64(ptePhysAddr(t, m, pb, fpVA), pte); err != nil {
				t.Fatal(err)
			}
			out, err := m.HandleFailure()
			if err != nil {
				t.Fatalf("HandleFailure: %v", err)
			}
			if out.Result != core.ResultRecovered || len(out.Report.Procs) != 2 {
				t.Fatalf("result %v with %d procs", out.Result, len(out.Report.Procs))
			}
			first, second := out.Report.Procs[0], out.Report.Procs[1]
			if first.SpecFallback != "" || first.PagesSpeculated != 2 {
				t.Fatalf("first pid %d: speculated %d, fallback %q; want 2 and none",
					first.Candidate.PID, first.PagesSpeculated, first.SpecFallback)
			}
			const want = "already speculated by an earlier candidate"
			if !strings.Contains(second.SpecFallback, want) {
				t.Fatalf("second pid %d SpecFallback = %q, want %q",
					second.Candidate.PID, second.SpecFallback, want)
			}
			if second.PagesSpeculated != 0 || second.Outcome != resurrect.OutcomeContinued {
				t.Fatalf("second pid %d: speculated %d, outcome %v (err %v)",
					second.Candidate.PID, second.PagesSpeculated, second.Outcome, second.Err)
			}
		})
	}
}

// specCorrupt wires the mid-resume corruption crash procedure to the test:
// the procedure runs inside the install phase, smashes every speculated
// frame through raw physical memory, then touches its own page — the CRC
// check must catch the corruption on that first touch and fall the whole
// candidate back to the shadow copies.
var specCorrupt struct {
	m    *core.Machine
	fill byte // frame contents after corruption (0xAB, or 0 for the all-zero case)
	read uint64
}

// scProg keeps one recognizable non-zero page that the lazy install will
// speculate and the crash procedure will read back mid-resume.
type scProg struct{}

const (
	scVA    = 0xB0000
	scValue = 0xDEADBEEFCAFE
)

func (scProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(scVA, phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	return env.WriteU64(scVA, scValue)
}

func (scProg) Step(env *kernel.Env) error {
	env.Compute(10)
	return nil
}

func (scProg) Rehydrate(env *kernel.Env) error { return nil }

func corruptingCrashProc(env *kernel.Env, missing kernel.ResourceMask) (kernel.CrashAction, error) {
	mem := specCorrupt.m.HW.Mem
	junk := bytes.Repeat([]byte{specCorrupt.fill}, phys.PageSize)
	for f := 0; f < mem.NumFrames(); f++ {
		if mem.Kind(f) == phys.FrameSpeculated {
			if err := mem.WriteAt(phys.FrameAddr(f), junk); err != nil {
				return 0, err
			}
		}
	}
	v, err := env.ReadU64(scVA)
	if err != nil {
		return 0, err
	}
	specCorrupt.read = v
	return kernel.ActionContinue, nil
}

func init() {
	kernel.RegisterProgram("sc-prog", func() kernel.Program { return scProg{} })
	kernel.RegisterCrashProc("sc-corruptor", corruptingCrashProc)
}

// TestLazyMidResumeCRCFallback corrupts a speculated frame while the install
// phase is still running (from inside the crash procedure) and touches it:
// validation must fail deterministically, the candidate must fall back to
// its shadow copy — so the crash procedure still reads the pre-crash value —
// and the attribution must land in ProcReport.SpecFallback with
// install-stage metrics. The all-zero variant pins the case where the frame
// is wiped rather than scribbled on.
func TestLazyMidResumeCRCFallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill byte
	}{
		{"scribbled", 0xAB},
		{"zeroed", 0x00},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.HW = hw.Config{MemoryBytes: 128 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
			opts.CrashRegionMB = 16
			opts.Seed = 31
			opts.LazyInstall = true
			m, err := core.NewMachine(opts)
			if err != nil {
				t.Fatalf("NewMachine: %v", err)
			}
			p, err := m.Start("sc", "sc-prog")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.K.RegisterCrashProcedure(p, "sc-corruptor"); err != nil {
				t.Fatal(err)
			}
			m.Run(20)
			specCorrupt.m, specCorrupt.fill, specCorrupt.read = m, tc.fill, 0
			out := recoverOutcome(t, m)
			if len(out.Report.Procs) != 1 {
				t.Fatalf("procs = %d", len(out.Report.Procs))
			}
			pr := out.Report.Procs[0]
			if pr.Outcome != resurrect.OutcomeContinued || !pr.CrashProcCalled {
				t.Fatalf("outcome %v called=%v err=%v", pr.Outcome, pr.CrashProcCalled, pr.Err)
			}
			if pr.PagesSpeculated != 1 {
				t.Fatalf("speculated = %d, want 1", pr.PagesSpeculated)
			}
			if !strings.HasPrefix(pr.SpecFallback, "crc:") {
				t.Fatalf("SpecFallback = %q, want a crc attribution", pr.SpecFallback)
			}
			// The shadow copy saved the touch: the crash procedure read the
			// pre-crash value even though the frame under it was destroyed.
			if specCorrupt.read != scValue {
				t.Fatalf("crash procedure read %#x, want %#x", specCorrupt.read, uint64(scValue))
			}
			snap := m.MetricsSnapshot()
			if v := counterVal(snap, "resurrect_spec_fallbacks_total", metrics.Labels{"stage": "install"}); v != 1 {
				t.Fatalf("spec_fallbacks{install} = %d, want 1", v)
			}
			if v := counterVal(snap, "resurrect_spec_fallbacks_total", metrics.Labels{"stage": "runtime"}); v != 0 {
				t.Fatalf("spec_fallbacks{runtime} = %d, want 0", v)
			}
			if v := counterVal(snap, "resurrect_spec_resolved_total", metrics.Labels{"trigger": "fallback"}); v != 1 {
				t.Fatalf("resolved{fallback} = %d, want 1", v)
			}
			if v := counterVal(snap, "resurrect_spec_resolved_total", metrics.Labels{"trigger": "touch"}); v != 0 {
				t.Fatalf("resolved{touch} = %d, want 0 (the touch fell back, it did not resolve)", v)
			}
		})
	}
}

// TestLazyPostResumeCRCFallback corrupts the speculated frames after the
// processes have already resumed: the background sweeper's validation must
// catch it, install the shadow copies, and attribute the fallback at runtime
// — and the programs must never observe the corrupted bytes.
func TestLazyPostResumeCRCFallback(t *testing.T) {
	m, out := lazyFPMachine(t)
	junk := bytes.Repeat([]byte{0xEE}, phys.PageSize)
	corrupted := 0
	for f := 0; f < m.HW.Mem.NumFrames(); f++ {
		if m.HW.Mem.Kind(f) == phys.FrameSpeculated {
			if err := m.HW.Mem.WriteAt(phys.FrameAddr(f), junk); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted != 4 {
		t.Fatalf("corrupted %d speculated frames, want 4 (2 per process)", corrupted)
	}
	m.Run(50)
	snap := m.MetricsSnapshot()
	if v := counterVal(snap, "resurrect_spec_fallbacks_total", metrics.Labels{"stage": "runtime"}); v != 2 {
		t.Fatalf("spec_fallbacks{runtime} = %d, want 2 (one per process)", v)
	}
	if v := counterVal(snap, "resurrect_spec_resolved_total", metrics.Labels{"trigger": "fallback"}); v != 4 {
		t.Fatalf("resolved{fallback} = %d, want 4", v)
	}
	if n := m.HW.Mem.CountKind(phys.FrameSpeculated); n != 0 {
		t.Fatalf("%d frames still speculated after the fallback", n)
	}
	// The shadow copies carried the day: contents identical to the eager
	// install's guarantees, corruption never surfaced.
	got := make([]byte, phys.PageSize)
	for _, pr := range out.Report.Procs {
		np := m.K.Lookup(pr.NewPID)
		if np == nil {
			t.Fatalf("pid %d not found", pr.NewPID)
		}
		if err := m.K.ReadVM(np, fpVA, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fpSharedPattern()) {
			t.Fatalf("pid %d: corruption leaked into the pattern page", np.PID)
		}
		if err := m.K.ReadVM(np, fpVA+2*phys.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if want := byte(0x80 | byte(pr.Candidate.PID)); got[phys.PageSize-1] != want {
			t.Fatalf("pid %d: boundary tail = %#x, want %#x", np.PID, got[phys.PageSize-1], want)
		}
	}
}
