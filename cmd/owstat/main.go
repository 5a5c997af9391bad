// Command owstat introspects the metrics plane: it renders snapshot files
// written by the other commands' -metrics-json flags, diffs two snapshots
// with per-metric deltas, and — the post-mortem path — recovers the
// crash-surviving metrics segment straight out of a raw KDump image, so
// the dead kernel's counters are readable even when nothing else is.
//
// Usage:
//
//	owstat render [-prom] snapshot.json
//	owstat diff old.json new.json
//	owstat recover [-prom] [-json file] vmcore
//
// diff exits 0 when the snapshots are identical and 1 when they differ,
// like diff(1). A bad invocation (an unknown subcommand, flag or scenario,
// a stray argument, or flags that do not combine) exits 2 before anything
// runs; -h exits 0. recover never treats corrupted segment pages as fatal:
// they are counted and reported, and every intact page still renders.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"otherworld/internal/dump"
	"otherworld/internal/experiment"
	"otherworld/internal/metrics"
	"otherworld/internal/resurrect"
	"otherworld/internal/sched"
	"otherworld/internal/spans"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		usage(errw)
		return 2
	}
	var err error
	switch args[0] {
	case "render":
		err = cmdRender(args[1:], out, errw)
	case "diff":
		var differ bool
		differ, err = cmdDiff(args[1:], out, errw)
		if err == nil && differ {
			return 1
		}
	case "recover":
		err = cmdRecover(args[1:], out, errw)
	case "timeline":
		err = cmdTimeline(args[1:], out, errw)
	case "-h", "-help", "--help", "help":
		usage(out)
		return 0
	default:
		fmt.Fprintf(errw, "owstat: unknown subcommand %q\n", args[0])
		usage(errw)
		return 2
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(errw, "owstat:", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// usageError is an invocation refused before anything runs; run exits 2
// for it, as for an unknown subcommand.
type usageError struct{ error }

// parseFlags parses a subcommand's flags, writing the flag package's
// complaints and -h's flag list to errw. A bad flag is a usageError; -h
// returns flag.ErrHelp, which run answers with exit 0.
func parseFlags(fs *flag.FlagSet, args []string, errw io.Writer) error {
	fs.SetOutput(errw)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

func usage(w io.Writer) {
	fmt.Fprint(w, `owstat — Otherworld metrics introspection

  owstat render [-prom] snapshot.json     render a snapshot (table or Prometheus text)
  owstat diff old.json new.json           per-metric deltas; exit 1 when they differ
  owstat recover [-prom] [-json f] vmcore recover the metrics segment from a raw dump
  owstat timeline [-app NAME] [-seed N] [-lazy] [-resurrect-workers N]
                  [-analysis-workers N] [-perfetto f]
                  [-fleet N] [-tiers "prog=tier,..."]
                                          run a crash-and-resurrect scenario and print
                                          its causal span tree; -perfetto also writes
                                          Chrome trace-event JSON loadable in Perfetto;
                                          -fleet N runs the fleet-recovery scenario
                                          (streaming admission, per-tier table first)
`)
}

func loadSnapshot(path string) (*metrics.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := metrics.DecodeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func cmdRender(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	prom := fs.Bool("prom", false, "Prometheus text exposition instead of the table")
	if err := parseFlags(fs, args, errw); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{fmt.Errorf("render: want exactly one snapshot file, got %d args", fs.NArg())}
	}
	s, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	if *prom {
		return s.WritePrometheus(out)
	}
	fmt.Fprintf(out, "schema %s, logical clock %d ns, %d metrics\n\n",
		s.Schema, s.LogicalNowNS, len(s.Points))
	return s.RenderTable(out)
}

func cmdDiff(args []string, out, errw io.Writer) (differ bool, err error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := parseFlags(fs, args, errw); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, usageError{fmt.Errorf("diff: want old.json new.json, got %d args", fs.NArg())}
	}
	a, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		return false, err
	}
	b, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		return false, err
	}
	d := metrics.Diff(a, b)
	if err := d.Render(out); err != nil {
		return false, err
	}
	return len(d.Deltas) > 0, nil
}

// cmdTimeline runs a deterministic crash-and-resurrect scenario and prints
// the reconstructed causal span tree (and optionally the Perfetto JSON).
// The default scenario is the warmed 8xMySQL recovery the bench snapshot
// measures; -app substitutes any Table 5 application via a single faulted
// experiment. Both are pure functions of the seed, so the printed tree is
// bit-identical at any live resurrect-worker width.
func cmdTimeline(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	app := fs.String("app", "mysql-x8", "scenario: mysql-x8 (warmed 8xMySQL crash) or a Table 5 application name")
	seed := fs.Int64("seed", 20100413, "seed")
	lazy := fs.Bool("lazy", false, "demand-paged resurrection install")
	resWorkers := fs.Int("resurrect-workers", 0, "mysql-x8 and -fleet only: live resurrection pool width (0 = NumCPU); cannot change the tree")
	analysisWorkers := fs.Int("analysis-workers", 0, "critical-path analysis width (0 = canonical)")
	perfetto := fs.String("perfetto", "", "also write Chrome trace-event JSON (Perfetto-loadable) to this file")
	fleet := fs.Int("fleet", 0, "run the fleet-recovery scenario at this population instead of -app (streaming resurrection, index-assisted discovery, per-tier table + tier lanes)")
	tierSpec := fs.String("tiers", "", "fleet tier overrides merged onto the defaults: comma-separated program=tier pairs, e.g. sh=1 (default mysqld=0, apache-php=1, volano=1, sh=2)")
	if err := parseFlags(fs, args, errw); err != nil {
		return err
	}
	oneApp := *fleet == 0 && *app != "mysql-x8"
	switch {
	case fs.NArg() != 0:
		return usageError{fmt.Errorf("timeline: unexpected arguments %v", fs.Args())}
	case *fleet < 0:
		return usageError{fmt.Errorf("timeline: -fleet %d: a fleet needs at least one process", *fleet)}
	case *tierSpec != "" && *fleet == 0:
		return usageError{fmt.Errorf("timeline: -tiers only applies to the fleet scenario (-fleet N)")}
	case *resWorkers != 0 && oneApp:
		return usageError{fmt.Errorf("timeline: -resurrect-workers only applies to the mysql-x8 and fleet scenarios; an experiment resurrects one application")}
	case *analysisWorkers > 0 && *analysisWorkers != resurrect.CanonicalWorkers && oneApp:
		return usageError{fmt.Errorf("timeline: -analysis-workers applies to the mysql-x8 and fleet scenarios; experiment trees analyze at the canonical width %d", resurrect.CanonicalWorkers)}
	}
	if oneApp {
		if _, err := experiment.DriverFor(*app, *seed); err != nil {
			return usageError{fmt.Errorf("timeline: -app: %w", err)}
		}
	}

	var tree *spans.Tree
	if *fleet > 0 {
		cfg := experiment.DefaultFleet(*fleet, *seed)
		cfg.Workers = *resWorkers
		cfg.Lazy = *lazy
		if *tierSpec != "" {
			overrides, err := sched.ParseTierSpec(*tierSpec)
			if err != nil {
				return usageError{fmt.Errorf("timeline: %w", err)}
			}
			tiers := experiment.DefaultFleetTiers()
			for prog, t := range overrides {
				tiers[prog] = t
			}
			cfg.Tiers = tiers
		}
		res, err := experiment.FleetRecovery(cfg)
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		if _, err := io.WriteString(out, res.RenderFleetTable()); err != nil {
			return err
		}
		tree, err = res.FleetSpanTree(*seed, *lazy, *analysisWorkers)
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	} else if *app == "mysql-x8" {
		fo, m, err := experiment.MultiMySQLRecovery(*seed, *resWorkers, *lazy)
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		tree, err = experiment.SpanTreeFor(m, fo, *app, *seed, *lazy, *analysisWorkers)
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	} else {
		cfg := experiment.DefaultConfig(*app, *seed)
		cfg.Machine.LazyInstall = *lazy
		cfg.BuildSpans = true
		res := experiment.Run(cfg)
		if res.Spans == nil {
			return fmt.Errorf("timeline: experiment did not recover (outcome %v); try another -seed", res.Outcome)
		}
		tree = res.Spans
	}

	if _, err := io.WriteString(out, tree.Render()); err != nil {
		return err
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			return err
		}
		if err := tree.WriteTraceEvents(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(out, "perfetto trace written to", *perfetto)
	}
	return nil
}

func cmdRecover(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("recover", flag.ContinueOnError)
	prom := fs.Bool("prom", false, "Prometheus text exposition instead of the table")
	jsonOut := fs.String("json", "", "also write the recovered snapshot as JSON to this file")
	if err := parseFlags(fs, args, errw); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{fmt.Errorf("recover: want exactly one dump file, got %d args", fs.NArg())}
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	img, err := dump.Parse(data)
	if err != nil {
		return err
	}
	seg := metrics.ScanSegment(img, int(img.MaxFrame)+1)
	fmt.Fprintf(out, "dump: %d captured frames; metrics segment: %d pages (%d valid, %d corrupted)\n",
		img.Frames(), seg.Pages, seg.Valid, seg.Corrupted)
	if seg.Corrupted > 0 {
		fmt.Fprintf(out, "warning: %d segment pages failed their CRC (wild writes or torn flush); intact pages recovered below\n",
			seg.Corrupted)
	}
	if seg.Valid == 0 {
		fmt.Fprintln(out, "no intact metrics pages in this dump")
		return nil
	}
	s := seg.Snapshot
	fmt.Fprintf(out, "dead kernel's last flush at logical clock %d ns, %d metrics\n\n",
		s.LogicalNowNS, len(s.Points))
	if *jsonOut != "" {
		enc, err := s.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return err
		}
	}
	if *prom {
		return s.WritePrometheus(out)
	}
	return s.RenderTable(out)
}
