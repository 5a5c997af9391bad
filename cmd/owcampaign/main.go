// Command owcampaign runs the paper's Section 6 fault-injection campaigns:
// the Table 5 resurrection-reliability matrix and the hardening ablation
// that reproduces the 89%→97% improvement.
//
// Usage:
//
//	owcampaign [-n perApp] [-seed n] [-apps csv] [-hardening on|off]
//	           [-nocrc] [-noprotected] [-campaign-workers n]
//	           [-lazy-install] [-index-slots n]
//	           [-disk-crash] [-baseline]
//	           [-trace] [-trace-json f] [-metrics] [-metrics-json f]
//
// The paper ran 400 faulted experiments per application; -n 400 reproduces
// that (several CPU-minutes). Smaller -n gives a quick estimate.
//
// -trace prints the per-application failure attributions recovered from the
// dead kernels' flight-recorder rings (internal/trace); -trace-json writes
// them to a file for tooling. A live progress ticker goes to stderr.
//
// A bad flag, an unknown -hardening value or an application no experiment
// driver knows exits 2 before any experiment runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"otherworld/internal/experiment"
	"otherworld/internal/kernel"
	"otherworld/internal/metrics"

	_ "otherworld/internal/apps" // register the paper's applications
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: parses args, runs the campaign, renders it
// to stdout and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("owcampaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 100, "faulted experiments per application (paper: 400)")
	seed := fs.Int64("seed", 20100413, "campaign seed")
	appsCSV := fs.String("apps", "", "comma-separated application subset (default: all five)")
	hardening := fs.String("hardening", "on", "Section 6 hardening fixes: on or off")
	nocrc := fs.Bool("nocrc", false, "disable record checksums (Section 4 ablation)")
	noprotected := fs.Bool("noprotected", false, "skip the protected-mode corruption pass")
	campaignWorkers := fs.Int("campaign-workers", 0, "campaign pool width: whole experiments run concurrently (0 = NumCPU); the table, attributions and metrics are bit-identical at any width")
	lazyInstall := fs.Bool("lazy-install", false, "demand-paged resurrection in every experiment: resume at context install, CRC-validated copy-on-access pages")
	indexSlots := fs.Int("index-slots", 0, "size every experiment kernel's candidate index; discovery salvages it instead of walking the full process list (0 = off)")
	diskCrash := fs.Bool("disk-crash", false, "block-layer crash model: at kernel-crash time the volatile write cache may roll back, the in-flight sector may tear, and unflushed dirty pages drain in seeded order; drivers with a platter audit add a data-survival column")
	baseline := fs.Bool("baseline", false, "no-Otherworld control: cold-reboot and restart the application from disk instead of resurrecting")
	jsonOut := fs.String("json", "", "also write the rows as JSON to this file")
	showTrace := fs.Bool("trace", false, "print per-application failure attributions from the flight recorder")
	traceJSON := fs.String("trace-json", "", "write the failure attributions as JSON to this file")
	showMetrics := fs.Bool("metrics", false, "print the campaign's outcome/fault-kind counters")
	metricsJSON := fs.String("metrics-json", "", "write the campaign metrics snapshot as JSON to this file")
	quiet := fs.Bool("quiet", false, "suppress the live progress ticker")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := experiment.DefaultCampaign(*n, *seed)
	cfg.CampaignWorkers = *campaignWorkers
	cfg.LazyInstall = *lazyInstall
	cfg.IndexSlots = *indexSlots
	cfg.DiskCrash = *diskCrash
	cfg.Baseline = *baseline
	cfg.SkipProtected = *noprotected
	cfg.VerifyCRC = !*nocrc
	if *appsCSV != "" {
		cfg.Apps = strings.Split(*appsCSV, ",")
		for _, app := range cfg.Apps {
			if _, err := experiment.DriverFor(app, *seed); err != nil {
				fmt.Fprintln(stderr, "owcampaign: -apps:", err)
				return 2
			}
		}
	}
	if *showMetrics || *metricsJSON != "" {
		cfg.Metrics = metrics.NewRegistry()
	}
	switch *hardening {
	case "on":
		cfg.Hardening = kernel.FullHardening()
	case "off":
		cfg.Hardening = kernel.NoHardening()
	default:
		fmt.Fprintln(stderr, "owcampaign: -hardening must be on or off")
		return 2
	}

	if !*quiet {
		cfg.Progress = func(u experiment.ProgressUpdate) {
			pass := "unprotected"
			if u.Protected {
				pass = "protected"
			}
			fmt.Fprintf(stderr, "\r%-12s %-11s %d/%d faulted (%d discarded)   ",
				u.App, pass, u.Faulted, u.Want, u.Discarded)
		}
	}

	fmt.Fprintf(stdout, "Fault-injection campaign: %d faulted runs/app, seed %d, hardening %s, CRC %v\n\n",
		*n, *seed, *hardening, cfg.VerifyCRC)
	//owvet:allow nodeterminism: wall-clock stopwatch for the progress report; campaign results depend only on -seed
	start := time.Now()
	rows := experiment.RunTable5(cfg)
	if !*quiet {
		fmt.Fprint(stderr, "\r\033[K")
	}
	fmt.Fprint(stdout, experiment.RenderTable5(rows))

	for _, w := range experiment.Shortfalls(rows) {
		fmt.Fprintln(stderr, "owcampaign: warning: undershoot:", w)
	}

	// Interruption distribution per application, nearest-rank percentiles
	// over successful recoveries — the span-plane aggregation layer. A
	// baseline pass measures no outage.
	fmt.Fprintln(stdout, "\ninterruption percentiles (p50/p95/p99):")
	for _, row := range rows {
		if row.InterruptionSamples == 0 {
			fmt.Fprintf(stdout, "  %-12s n/a\n", row.App)
			continue
		}
		fmt.Fprintf(stdout, "  %-12s %v/%v/%v",
			row.App,
			row.P50Interruption.Round(time.Millisecond),
			row.P95Interruption.Round(time.Millisecond),
			row.P99Interruption.Round(time.Millisecond))
		if row.FirstTouchSamples > 0 {
			fmt.Fprintf(stdout, "   first-touch n=%d p50=%v p95=%v p99=%v",
				row.FirstTouchSamples, row.P50FirstTouch, row.P95FirstTouch, row.P99FirstTouch)
		}
		fmt.Fprintln(stdout)
	}

	faulted, discarded, structCorrupt := experiment.Totals(rows)
	fmt.Fprintf(stdout, "\n%d faulted experiments; %d injections caused no kernel failure and were discarded (%s)\n",
		faulted, discarded, experiment.Percent(float64(discarded)/float64(faulted+discarded), faulted+discarded, 0))
	fmt.Fprintf(stdout, "resurrection failures from detected kernel-structure corruption: %d of %d\n",
		structCorrupt, faulted)
	if checked, violations := experiment.DataTotals(rows); checked > 0 {
		fmt.Fprintf(stdout, "data invariant violations: %d of %d post-crash disk audits\n", violations, checked)
	}
	if reasons := experiment.TopReasons(rows); len(reasons) > 0 {
		fmt.Fprintln(stdout, "\nfailure attributions (all applications):")
		for _, r := range reasons {
			fmt.Fprintln(stdout, " ", r)
		}
	}
	if *showTrace {
		fmt.Fprintln(stdout, "\nper-application failure attributions (from the crash-surviving flight recorder):")
		any := false
		for _, row := range rows {
			if len(row.Attributions) == 0 {
				continue
			}
			any = true
			fmt.Fprintf(stdout, "  %s:\n", row.App)
			for _, ac := range row.Attributions {
				fmt.Fprintf(stdout, "    %4dx %s\n", ac.Count, ac.Attribution)
			}
		}
		if !any {
			fmt.Fprintln(stdout, "  (none — every faulted run succeeded)")
		}
	}
	if *traceJSON != "" {
		byApp := make(map[string][]experiment.AttributionCount, len(rows))
		for _, row := range rows {
			byApp[row.App] = row.Attributions
		}
		data, err := json.MarshalIndent(byApp, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "owcampaign: marshal attributions:", err)
			return 1
		}
		if err := os.WriteFile(*traceJSON, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "owcampaign: write:", err)
			return 1
		}
		fmt.Fprintln(stdout, "failure attributions written to", *traceJSON)
	}
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		if *showMetrics {
			fmt.Fprintf(stdout, "\ncampaign metrics (%d series):\n", len(snap.Points))
			if err := snap.RenderTable(stdout); err != nil {
				fmt.Fprintln(stderr, "owcampaign: render metrics:", err)
				return 1
			}
		}
		if *metricsJSON != "" {
			data, err := snap.EncodeJSON()
			if err != nil {
				fmt.Fprintln(stderr, "owcampaign: marshal metrics:", err)
				return 1
			}
			if err := os.WriteFile(*metricsJSON, data, 0o644); err != nil {
				fmt.Fprintln(stderr, "owcampaign: write:", err)
				return 1
			}
			fmt.Fprintln(stdout, "campaign metrics written to", *metricsJSON)
		}
	}

	//owvet:allow nodeterminism: elapsed wall time is display-only and never enters campaign output files
	fmt.Fprintf(stdout, "\n(wall time %.0fs)\n", time.Since(start).Seconds())

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "owcampaign: marshal:", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "owcampaign: write:", err)
			return 1
		}
		fmt.Fprintln(stdout, "rows written to", *jsonOut)
	}
	return 0
}
