package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Config selects which analyzers run.
type Config struct {
	// Enable restricts the run to the named analyzers (nil/empty = all).
	Enable []string
	// Disable removes analyzers after Enable is applied.
	Disable []string
}

// AnalyzerTiming is one analyzer's accumulated wall time across packages.
type AnalyzerTiming struct {
	Name     string
	Wall     time.Duration
	Packages int
}

// RunStats reports where a run spent its time (the -timing flag).
type RunStats struct {
	Load      time.Duration // module discovery, parsing, type-checking
	Flow      time.Duration // call graph + function summaries (flow analyzers)
	Total     time.Duration
	Packages  int
	Analyzers []AnalyzerTiming // suite order, selected analyzers only
}

// flowAnalyzers need the shared dataflow index.
var flowAnalyzers = map[string]bool{"deadtaint": true, "costaccount": true, "sealedacct": true}

// selected resolves the configured analyzer set, in suite order.
func (c Config) selected() ([]*Analyzer, error) {
	on := make(map[string]bool, len(All))
	if len(c.Enable) == 0 {
		for _, a := range All {
			on[a.Name] = true
		}
	}
	for _, n := range c.Enable {
		if Lookup(n) == nil {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		on[n] = true
	}
	for _, n := range c.Disable {
		if Lookup(n) == nil {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		on[n] = false
	}
	var out []*Analyzer
	for _, a := range All {
		if on[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Run loads every package under the module rooted at root and applies the
// configured analyzers, returning diagnostics sorted by file, line, column
// and analyzer name.
func Run(root string, cfg Config) ([]Diagnostic, error) {
	diags, _, err := RunWithStats(root, cfg)
	return diags, err
}

// RunWithStats is Run plus per-phase and per-analyzer wall-time stats.
func RunWithStats(root string, cfg Config) ([]Diagnostic, *RunStats, error) {
	start := time.Now()
	analyzers, err := cfg.selected()
	if err != nil {
		return nil, nil, err
	}
	mod, err := DiscoverModule(root)
	if err != nil {
		return nil, nil, err
	}
	loader := NewLoader(mod)
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, nil, err
	}
	stats := &RunStats{Load: time.Since(start), Packages: len(pkgs)}

	var flow *FlowIndex
	for _, a := range analyzers {
		if flowAnalyzers[a.Name] {
			flowStart := time.Now()
			flow = buildFlowIndex(mod, pkgs)
			stats.Flow = time.Since(flowStart)
			break
		}
	}

	// Passes run in package order on this goroutine: loading and
	// type-checking take nearly all of a run, the passes about 1%.
	timing := make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		timing[i].Name = a.Name
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		for i, a := range analyzers {
			if !a.AppliesTo(pkg.Rel) {
				continue
			}
			passStart := time.Now()
			a.Run(&Pass{
				Analyzer: a,
				Pkg:      pkg,
				Flow:     flow,
				modRoot:  mod.Root,
				allows:   allows,
				diags:    &diags,
			})
			timing[i].Wall += time.Since(passStart)
			timing[i].Packages++
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	stats.Analyzers = timing
	stats.Total = time.Since(start)
	return diags, stats, nil
}

// WriteTimings renders RunStats as the -timing report.
func (s *RunStats) WriteTimings(w io.Writer) {
	fmt.Fprintf(w, "owvet timing: %d package(s)\n", s.Packages)
	fmt.Fprintf(w, "  %-16s %12v\n", "load+typecheck", s.Load.Round(time.Microsecond))
	if s.Flow > 0 {
		fmt.Fprintf(w, "  %-16s %12v\n", "dataflow index", s.Flow.Round(time.Microsecond))
	}
	for _, at := range s.Analyzers {
		fmt.Fprintf(w, "  %-16s %12v  (%d package(s))\n",
			at.Name, at.Wall.Round(time.Microsecond), at.Packages)
	}
	fmt.Fprintf(w, "  %-16s %12v\n", "total", s.Total.Round(time.Microsecond))
}

// JSONVersion identifies the machine-readable output schema. Bump only on
// incompatible changes; tooling keys off it.
const JSONVersion = 1

// jsonReport is the owvet -json document.
type jsonReport struct {
	Version     int          `json:"version"`
	Count       int          `json:"count"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// WriteJSON renders diagnostics in the stable machine-readable schema.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	rep := jsonReport{Version: JSONVersion, Count: len(diags), Diagnostics: diags}
	if rep.Diagnostics == nil {
		rep.Diagnostics = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
