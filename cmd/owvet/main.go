// Command owvet runs the repository's static-analysis suite
// (internal/analysis): machine-checked enforcement of the cross-kernel
// memory discipline, campaign determinism, panic modeling, substrate error
// handling, lock discipline, dead-byte provenance (deadtaint), machine-clock
// cost accounting (costaccount) and the sealed-ledger publish discipline
// (sealedacct) the paper's correctness argument depends on. It is part of
// the `make verify` gate.
//
// Usage:
//
//	owvet [-C dir] [-json] [-enable csv] [-disable csv] [-timing] [-list]
//
// owvet walks the enclosing module (found from -C or the working
// directory) itself — no go/packages, no external dependencies — and exits
// 1 if any diagnostic is reported, 2 on usage or load errors. -timing
// prints where the run spent its time.
//
// The only way to accept a finding is a comment on, or directly above, the
// flagged line:
//
//	//owvet:allow <analyzer>: <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"otherworld/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: parses args, executes the suite, renders
// output to stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("owvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory inside the module to analyze")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (stable schema)")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	timing := fs.Bool("timing", false, "print per-phase and per-analyzer wall time to stderr")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := analysis.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "owvet:", err)
		return 2
	}
	cfg := analysis.Config{
		Enable:  splitCSV(*enable),
		Disable: splitCSV(*disable),
	}
	diags, stats, err := analysis.RunWithStats(root, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "owvet:", err)
		return 2
	}
	if *timing {
		stats.WriteTimings(stderr)
	}

	if *jsonOut {
		if err := analysis.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "owvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "owvet: %d diagnostic(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
