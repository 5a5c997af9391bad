package spans

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
	"otherworld/internal/trace"
)

// parseFuzzRing lands arbitrary bytes in a one-frame ring region and parses
// it, the same corruption surface FuzzFrameSalvage exercises.
func parseFuzzRing(t *testing.T, data []byte) *trace.Parsed {
	t.Helper()
	mem := phys.NewMem(2 * phys.PageSize)
	if len(data) > phys.PageSize {
		data = data[:phys.PageSize]
	}
	//owvet:allow errdrop: corrupt ring images are the point of the fuzz; Parse below is total
	_ = mem.WriteAt(phys.FrameAddr(1), data)
	p := trace.Parse(mem, phys.Region{Start: 1, Frames: 1})
	if p == nil {
		t.Fatal("trace.Parse returned nil")
	}
	return p
}

// sampleReport builds a small deterministic report with two candidates and
// explicit per-phase timelines, the shape Build consumes.
func sampleReport() *resurrect.Report {
	rep := &resurrect.Report{
		Prologue:     20 * time.Microsecond,
		PerCandidate: []time.Duration{3 * time.Millisecond, 5 * time.Millisecond},
	}
	rep.Duration = rep.Prologue + 8*time.Millisecond
	rep.Procs = []resurrect.ProcReport{
		{
			Candidate: resurrect.Candidate{PID: 4, Name: "mysqld-0"},
			Outcome:   resurrect.OutcomeContinued,
			Timeline: []resurrect.PhaseStep{
				{Phase: resurrect.PhaseParse, Duration: time.Millisecond},
				{Phase: resurrect.PhasePageCopy, Duration: 2 * time.Millisecond},
			},
		},
		{
			Candidate: resurrect.Candidate{PID: 9, Name: "mysqld-1"},
			Outcome:   resurrect.OutcomeContinued,
			Timeline: []resurrect.PhaseStep{
				{Phase: resurrect.PhaseParse, Duration: time.Millisecond},
				{Phase: resurrect.PhasePageCopy, Duration: 4 * time.Millisecond},
			},
		},
	}
	return rep
}

func TestBuildSharesSumToInterruption(t *testing.T) {
	rep := sampleReport()
	for _, w := range []int{1, 2, 4, 8} {
		tree, err := Build(Input{
			App: "t", Workers: w, Report: rep,
			Interruption: rep.Duration + 50*time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, s := range tree.Critical.Shares {
			sum += s.Dur
		}
		if sum != tree.Critical.Interruption {
			t.Fatalf("width %d: shares sum %v != interruption %v", w, sum, tree.Critical.Interruption)
		}
		if tree.Critical.Interruption <= 0 {
			t.Fatalf("width %d: nonpositive interruption %v", w, tree.Critical.Interruption)
		}
	}
}

func TestBuildRequiresReport(t *testing.T) {
	if _, err := Build(Input{}); err == nil {
		t.Fatal("Build without a report must error")
	}
}

func TestBuildCountsGaps(t *testing.T) {
	rep := sampleReport()
	// A schedule input with no matching process report, and vice versa.
	rep.PerCandidate = append(rep.PerCandidate, time.Millisecond)
	tree, err := Build(Input{Report: rep, Interruption: rep.Duration})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Skipped == 0 {
		t.Fatal("mismatched schedule/report lengths must count as skipped")
	}

	rep2 := sampleReport()
	rep2.PerCandidate = rep2.PerCandidate[:1]
	tree2, err := Build(Input{Report: rep2, Interruption: rep2.Duration})
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Skipped == 0 {
		t.Fatal("orphan process report must count as skipped")
	}
}

func TestUnknownSpanMarkSkipped(t *testing.T) {
	tree, err := Build(Input{
		Report: sampleReport(),
		PostEvents: []trace.Event{
			{Kind: trace.KindSpanMark, A: trace.SpanMarkResume, B: 2},
			{Kind: trace.KindSpanMark, A: 999},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Skipped != 1 {
		t.Fatalf("unknown span-mark code: skipped = %d, want 1", tree.Skipped)
	}
	if !strings.Contains(tree.Render(), "2 procs resumed") {
		t.Fatal("resume mark did not override the resumed count")
	}
}

func TestPerfettoExportWellFormed(t *testing.T) {
	tree, err := Build(Input{
		App: "mysql-x8", Seed: 7, Report: sampleReport(),
		Interruption: 60 * time.Millisecond, DataChecked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tree.WriteTraceEvents(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`"displayTimeUnit":"ns"`, `"traceEvents":[`,
		`"ph":"M"`, `"ph":"X"`, `"ph":"i"`,
		`"name":"microreboot"`, `"name":"data-audit"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("perfetto export missing %q:\n%s", want, out)
		}
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("perfetto export is not valid JSON:\n%s", out)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []time.Duration{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	cases := []struct {
		p    int
		want time.Duration
	}{{0, 1}, {20, 1}, {50, 3}, {95, 5}, {99, 5}, {100, 5}, {-5, 1}, {150, 5}}
	for _, c := range cases {
		got, ok := Percentile(s, c.p)
		if !ok || got != c.want {
			t.Errorf("Percentile(p=%d) = %v, %v, want %v, true", c.p, got, ok, c.want)
		}
	}
	// Regression: a percentile over zero samples must report the absence
	// instead of a silent 0 (which rendered as a fake "0/0/0" table cell
	// for tiers and apps with no recoveries at all).
	for _, p := range []int{0, 50, 99, 100} {
		if got, ok := Percentile(nil, p); ok || got != 0 {
			t.Errorf("empty Percentile(p=%d) = %v, %v, want 0, false", p, got, ok)
		}
		if got, ok := Percentile([]time.Duration{}, p); ok || got != 0 {
			t.Errorf("empty-slice Percentile(p=%d) = %v, %v, want 0, false", p, got, ok)
		}
	}
}

// FuzzSpanBuild feeds arbitrary bytes through the flight-recorder parser
// into the span builder, alongside a synthetic report whose schedule inputs
// and timelines the fuzzer also skews — for a streamed report too, whose
// scan/install split and tiers it sizes independently of the candidates.
// Build's contract is total: skip-and-count, never a panic or an abort,
// and the critical-path shares still sum exactly to the interruption.
func FuzzSpanBuild(f *testing.F) {
	f.Add([]byte{}, uint8(2), int64(1e6), int64(5e7), false, int64(0), uint8(0))
	f.Add([]byte{0x7C, 0x0D, 1, 0}, uint8(9), int64(-5), int64(0), false, int64(0), uint8(0))
	f.Add(make([]byte, 300), uint8(0), int64(1e9), int64(-1), false, int64(0), uint8(0))
	f.Add([]byte{}, uint8(6), int64(3e6), int64(8e7), true, int64(1e6), uint8(6))
	f.Add([]byte{}, uint8(7), int64(math.MaxInt64), int64(1), true, int64(-7), uint8(0x2B))
	f.Add([]byte{}, uint8(5), int64(2e6), int64(0), true, int64(math.MaxInt64), uint8(5))
	f.Fuzz(func(t *testing.T, ring []byte, nCand uint8, spanNS, interruptNS int64,
		streamed bool, scanNS int64, split uint8) {
		parsed := parseFuzzRing(t, ring)

		rep := &resurrect.Report{Prologue: 10 * time.Microsecond}
		// Deliberately mismatched candidate/report counts exercise the gap
		// accounting; spanNS may be negative or huge.
		for i := 0; i < int(nCand%8); i++ {
			rep.PerCandidate = append(rep.PerCandidate, time.Duration(spanNS))
		}
		for i := 0; i < int(nCand%5); i++ {
			rep.Procs = append(rep.Procs, resurrect.ProcReport{
				Candidate: resurrect.Candidate{PID: uint32(i + 1), Name: "p"},
				Outcome:   resurrect.OutcomeContinued,
				Timeline: []resurrect.PhaseStep{
					{Phase: resurrect.PhaseParse, Duration: time.Duration(spanNS) / 2},
				},
			})
		}
		rep.Duration = rep.Prologue
		for _, d := range rep.PerCandidate {
			rep.Duration += d
		}
		if streamed {
			// The split matches the candidates unless a bit of split says
			// otherwise; scanNS may exceed the candidate span, and the tiers
			// run out of range.
			rep.Streamed = true
			nScan, nInstall := len(rep.PerCandidate), len(rep.PerCandidate)
			if split&1 != 0 {
				nScan = int(split>>2) % 8
			}
			if split&2 != 0 {
				nInstall = int(split>>5) % 8
			}
			for i := 0; i < nScan; i++ {
				rep.PerScan = append(rep.PerScan, time.Duration(scanNS))
			}
			for i := 0; i < nInstall; i++ {
				rep.PerInstall = append(rep.PerInstall, time.Duration(spanNS-scanNS))
			}
			for i := 0; i < int(split%9); i++ {
				rep.Tiers = append(rep.Tiers, int(scanNS%5)-1)
			}
		}

		tree, err := Build(Input{
			App: "fuzz", Report: rep, DeadTrace: parsed,
			Interruption: time.Duration(interruptNS),
			PostEvents:   parsed.Events,
		})
		if err != nil {
			t.Fatalf("Build must be total over corrupt input: %v", err)
		}
		if tree.Skipped < 0 {
			t.Fatalf("negative skip count %d", tree.Skipped)
		}
		var sum time.Duration
		for _, s := range tree.Critical.Shares {
			sum += s.Dur
		}
		if sum != tree.Critical.Interruption {
			t.Fatalf("shares sum %v != interruption %v", sum, tree.Critical.Interruption)
		}
		// Rendering and export must be total too.
		_ = tree.Render()
		var b bytes.Buffer
		if err := tree.WriteTraceEvents(&b); err != nil {
			t.Fatalf("export: %v", err)
		}
		if !json.Valid(b.Bytes()) {
			t.Fatalf("export is not valid JSON")
		}
	})
}
