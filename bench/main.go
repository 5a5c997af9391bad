// Command bench is the repository's benchmark. It crashes and recovers
// simulated machines through the public API of the core, apps, experiment
// and decoder packages, times every call from outside on the host clock,
// reads the modeled clock from the results, checks every output, and prints
// each metric as "workload metric value unit" followed by a one-line JSON
// result.
//
//	bash bench/run.sh --workload mysql8-eager --seed 1 --seconds 25 --trace 0
//	cd bench && go run . -workload fleet256-stream -seed 3 -trace 1 -json f.json
//	cd bench && go run . -compare parent*.json -- change*.json
//
// See README.md for the workloads, the metrics and the comparison rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// report is one run's result, as written by -json and read by -compare.
type report struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Trace     bool                  `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonMetric is a metric in a report; Value is nil when unknown.
type jsonMetric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds  = fs.Float64("seconds", 25, "measuring time of the run")
		traceOn  = fs.Int("trace", 0, "1 runs the traced run: per-layer metrics, a trace-event file and a self-time table")
		traceOut = fs.String("trace-out", "", "trace-event file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
		jsonOut  = fs.String("json", "", "also write the full report to this file")
		compare  = fs.Bool("compare", false, "compare reports: -compare parent.json... -- change.json...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: bench -workload <name> [-seed n] [-seconds s] [-trace 0|1] [-json file]\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	runtime.GOMAXPROCS(2)
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		fixed: w.fixed, population: w.population, perApp: w.perApp,
		traceOut: *traceOut,
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
	}
	rep := measure(w, cfg, stdout, stderr)
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	printResult(stdout, rep)
	return 0
}

// measure runs the workload and prints its metric lines. An untraced run
// measures end to end; a traced run measures an untraced and a traced phase
// of half the time each, reports the per-layer metrics of the traced phase
// and the tracing overhead, and fails if the phases' modeled results differ.
func measure(w workloadDef, cfg runConfig, stdout, stderr io.Writer) report {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rep := report{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]jsonMetric{}}
	var vals map[string]value
	var phases []*phase
	if !cfg.trace {
		p := runPhase(w, cfg, newTracer(false), budget)
		phases = append(phases, &p)
		vals = endToEndMetrics(&p)
	} else {
		plain := runPhase(w, cfg, newTracer(false), budget/2)
		tr := newTracer(true)
		traced := runPhase(w, cfg, tr, budget/2)
		phases = append(phases, &plain, &traced)
		vals = layerMetrics(&traced)
		cpsPlain := float64(plain.attempted) / plain.wall.Seconds()
		cpsTraced := float64(traced.attempted) / traced.wall.Seconds()
		vals["trace_overhead_pct"] = known(100*(cpsPlain-cpsTraced)/cpsPlain, traced.attempted)
		if err := modeledDiff(&plain, &traced); err != nil {
			traced.errs = append(traced.errs, "traced run disturbed the simulation: "+err.Error())
			traced.failed++
		}
		if err := tr.writeTraceFile(cfg.traceOut); err != nil {
			traced.errs = append(traced.errs, err.Error())
			traced.failed++
		}
		tr.writeSelfTable(stdout, w.name)
		fmt.Fprintf(stdout, "# trace-event file: %s\n", cfg.traceOut)
	}
	for _, p := range phases {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		for _, e := range p.errs {
			fmt.Fprintln(stderr, w.name+": "+e)
		}
	}
	rep.Correct = rep.Failed == 0
	for _, d := range catalog {
		if (d.scope == perLayer) != cfg.trace {
			continue
		}
		v := vals[d.Name]
		jm := jsonMetric{Unit: d.Unit, N: v.N}
		text := "null"
		if v.OK && !math.IsNaN(v.V) && !math.IsInf(v.V, 0) {
			jm.Value = &v.V
			text = fmt.Sprintf("%.6g", v.V)
		}
		rep.Metrics[d.Name] = jm
		fmt.Fprintf(stdout, "%s %s %s %s n=%d\n", w.name, d.Name, text, d.Unit, v.N)
	}
	return rep
}

// printResult prints the result line: only the metrics BENCHMARK.json
// declares for the run's mode, each with its value and unit.
func printResult(w io.Writer, rep report) {
	type metric struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	for _, d := range catalog {
		if m, ok := rep.Metrics[d.Name]; ok && d.scope != reportOnly {
			out.Metrics[d.Name] = metric{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out) // a struct of plain fields always marshals
	fmt.Fprintln(w, string(b))
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("report: %w", err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("report %s: %w", path, err)
	}
	if rep.Workload == "" {
		return rep, fmt.Errorf("report %s: no workload", path)
	}
	return rep, nil
}
