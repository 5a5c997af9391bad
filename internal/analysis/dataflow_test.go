package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadTaintInterprocedural is the tentpole acceptance case: a raw
// dead-kernel word returned through a helper (headWord) and used as an
// index in the caller. No phys.Mem selector appears at the use site, so the
// syntactic crosskernel rule is provably blind to it; the dataflow layer
// catches it through the helper's function summary.
func TestDeadTaintInterprocedural(t *testing.T) {
	const file = "internal/resurrect/deadtaint.go"
	data, err := os.ReadFile(filepath.Join(fixtureRoot, file))
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, l := range strings.Split(string(data), "\n") {
		if strings.Contains(l, "table[idx] // want") {
			line = i + 1
			break
		}
	}
	if line == 0 {
		t.Fatalf("smuggledIndex want line not found in %s", file)
	}

	syntactic, err := Run(fixtureRoot, Config{Enable: []string{"crosskernel"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range syntactic {
		if d.File == file {
			t.Errorf("crosskernel unexpectedly sees the interprocedural smuggle: %s", d)
		}
	}

	flow, err := Run(fixtureRoot, Config{Enable: []string{"deadtaint"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range flow {
		if d.File == file && d.Line == line {
			found = true
		}
	}
	if !found {
		t.Errorf("deadtaint missed the interprocedural smuggle at %s:%d; got: %v",
			file, line, flow)
	}
}

// TestRunStats checks the -timing plumbing: phases and per-analyzer rows
// are populated and the timing report renders.
func TestRunStats(t *testing.T) {
	_, stats, err := RunWithStats(fixtureRoot, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packages == 0 {
		t.Error("stats.Packages = 0")
	}
	if stats.Load <= 0 || stats.Total <= 0 {
		t.Errorf("load/total timings not recorded: %+v", stats)
	}
	if stats.Flow <= 0 {
		t.Error("flow-index build time not recorded with flow analyzers selected")
	}
	if len(stats.Analyzers) != len(All) {
		t.Errorf("got %d analyzer timings, want %d", len(stats.Analyzers), len(All))
	}
	for i, at := range stats.Analyzers {
		if at.Name != All[i].Name {
			t.Errorf("timing row %d is %s, want suite order %s", i, at.Name, All[i].Name)
		}
	}
	var buf bytes.Buffer
	stats.WriteTimings(&buf)
	if !strings.Contains(buf.String(), "deadtaint") || !strings.Contains(buf.String(), "total") {
		t.Errorf("timing report incomplete:\n%s", buf.String())
	}

	// Without flow analyzers, the index must not be built.
	_, lean, err := RunWithStats(fixtureRoot, Config{Enable: []string{"gopanic"}})
	if err != nil {
		t.Fatal(err)
	}
	if lean.Flow != 0 {
		t.Errorf("flow index built for a non-flow run (%v)", lean.Flow)
	}
}
