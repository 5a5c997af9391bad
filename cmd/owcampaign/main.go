// Command owcampaign runs the paper's Section 6 fault-injection campaigns:
// the Table 5 resurrection-reliability matrix and the hardening ablation
// that reproduces the 89%→97% improvement.
//
// Usage:
//
//	owcampaign [-n perApp] [-seed n] [-apps csv] [-hardening on|off]
//	           [-nocrc] [-noprotected] [-campaign-workers n]
//	           [-lazy-install] [-stream] [-index-slots n]
//	           [-disk-crash] [-baseline]
//	           [-trace] [-trace-json f] [-metrics] [-metrics-json f]
//
// The paper ran 400 faulted experiments per application; -n 400 reproduces
// that (several CPU-minutes). Smaller -n gives a quick estimate.
//
// -trace prints the per-application failure attributions recovered from the
// dead kernels' flight-recorder rings (internal/trace); -trace-json writes
// them to a file for tooling. A live progress ticker goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"otherworld/internal/experiment"
	"otherworld/internal/kernel"
	"otherworld/internal/metrics"

	_ "otherworld/internal/apps" // register the paper's applications
)

func main() {
	n := flag.Int("n", 100, "faulted experiments per application (paper: 400)")
	seed := flag.Int64("seed", 20100413, "campaign seed")
	appsCSV := flag.String("apps", "", "comma-separated application subset (default: all five)")
	hardening := flag.String("hardening", "on", "Section 6 hardening fixes: on or off")
	nocrc := flag.Bool("nocrc", false, "disable record checksums (Section 4 ablation)")
	noprotected := flag.Bool("noprotected", false, "skip the protected-mode corruption pass")
	campaignWorkers := flag.Int("campaign-workers", 0, "campaign pool width: whole experiments run concurrently (0 = NumCPU); the table, attributions and metrics are bit-identical at any width")
	lazyInstall := flag.Bool("lazy-install", false, "demand-paged resurrection in every experiment: resume at context install, CRC-validated copy-on-access pages")
	stream := flag.Bool("stream", false, "streaming resurrection in every experiment: SLO-tier admission and pipelined install commit instead of the batch pass")
	indexSlots := flag.Int("index-slots", 0, "size every experiment kernel's candidate index; discovery salvages it instead of walking the full process list (0 = off)")
	diskCrash := flag.Bool("disk-crash", false, "block-layer crash model: at kernel-crash time the volatile write cache may roll back, the in-flight sector may tear, and unflushed dirty pages drain in seeded order; drivers with a platter audit add a data-survival column")
	baseline := flag.Bool("baseline", false, "no-Otherworld control: cold-reboot and restart the application from disk instead of resurrecting")
	jsonOut := flag.String("json", "", "also write the rows as JSON to this file")
	showTrace := flag.Bool("trace", false, "print per-application failure attributions from the flight recorder")
	traceJSON := flag.String("trace-json", "", "write the failure attributions as JSON to this file")
	showMetrics := flag.Bool("metrics", false, "print the campaign's outcome/fault-kind counters")
	metricsJSON := flag.String("metrics-json", "", "write the campaign metrics snapshot as JSON to this file")
	quiet := flag.Bool("quiet", false, "suppress the live progress ticker")
	flag.Parse()

	cfg := experiment.DefaultCampaign(*n, *seed)
	cfg.CampaignWorkers = *campaignWorkers
	cfg.LazyInstall = *lazyInstall
	cfg.Stream = *stream
	cfg.IndexSlots = *indexSlots
	cfg.DiskCrash = *diskCrash
	cfg.Baseline = *baseline
	cfg.SkipProtected = *noprotected
	cfg.VerifyCRC = !*nocrc
	if *appsCSV != "" {
		cfg.Apps = strings.Split(*appsCSV, ",")
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
		fmt.Fprintln(os.Stderr, "owcampaign: -hardening must be on or off")
		os.Exit(2)
	}

	if !*quiet {
		cfg.Progress = func(u experiment.ProgressUpdate) {
			pass := "unprotected"
			if u.Protected {
				pass = "protected"
			}
			fmt.Fprintf(os.Stderr, "\r%-12s %-11s %d/%d faulted (%d discarded)   ",
				u.App, pass, u.Faulted, u.Want, u.Discarded)
		}
	}

	fmt.Printf("Fault-injection campaign: %d faulted runs/app, seed %d, hardening %s, CRC %v\n\n",
		*n, *seed, *hardening, cfg.VerifyCRC)
	//owvet:allow nodeterminism: wall-clock stopwatch for the progress report; campaign results depend only on -seed
	start := time.Now()
	rows := experiment.RunTable5(cfg)
	if !*quiet {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
	fmt.Print(experiment.RenderTable5(rows))

	for _, w := range experiment.Shortfalls(rows) {
		fmt.Fprintln(os.Stderr, "owcampaign: warning: undershoot:", w)
	}

	// Interruption distribution per application, nearest-rank percentiles
	// over successful recoveries — the span-plane aggregation layer.
	fmt.Println("\ninterruption percentiles (p50/p95/p99):")
	for _, row := range rows {
		if row.Success == 0 {
			fmt.Printf("  %-12s n/a\n", row.App)
			continue
		}
		fmt.Printf("  %-12s %v/%v/%v",
			row.App,
			row.P50Interruption.Round(time.Millisecond),
			row.P95Interruption.Round(time.Millisecond),
			row.P99Interruption.Round(time.Millisecond))
		if row.FirstTouchSamples > 0 {
			fmt.Printf("   first-touch n=%d p50=%v p95=%v p99=%v",
				row.FirstTouchSamples, row.P50FirstTouch, row.P95FirstTouch, row.P99FirstTouch)
		}
		fmt.Println()
	}

	faulted, discarded, structCorrupt := experiment.Totals(rows)
	fmt.Printf("\n%d faulted experiments; %d injections caused no kernel failure and were discarded (%s)\n",
		faulted, discarded, experiment.Percent(float64(discarded)/float64(faulted+discarded), faulted+discarded, 0))
	fmt.Printf("resurrection failures from detected kernel-structure corruption: %d of %d\n",
		structCorrupt, faulted)
	if checked, violations := experiment.DataTotals(rows); checked > 0 {
		fmt.Printf("data invariant violations: %d of %d post-crash disk audits\n", violations, checked)
	}
	if reasons := experiment.TopReasons(rows); len(reasons) > 0 {
		fmt.Println("\nfailure attributions (all applications):")
		for _, r := range reasons {
			fmt.Println(" ", r)
		}
	}
	if *showTrace {
		fmt.Println("\nper-application failure attributions (from the crash-surviving flight recorder):")
		any := false
		for _, row := range rows {
			if len(row.Attributions) == 0 {
				continue
			}
			any = true
			fmt.Printf("  %s:\n", row.App)
			for _, ac := range row.Attributions {
				fmt.Printf("    %4dx %s\n", ac.Count, ac.Attribution)
			}
		}
		if !any {
			fmt.Println("  (none — every faulted run succeeded)")
		}
	}
	if *traceJSON != "" {
		byApp := make(map[string][]experiment.AttributionCount, len(rows))
		for _, row := range rows {
			byApp[row.App] = row.Attributions
		}
		data, err := json.MarshalIndent(byApp, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "owcampaign: marshal attributions:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*traceJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "owcampaign: write:", err)
			os.Exit(1)
		}
		fmt.Println("failure attributions written to", *traceJSON)
	}
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		if *showMetrics {
			fmt.Printf("\ncampaign metrics (%d series):\n", len(snap.Points))
			if err := snap.RenderTable(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "owcampaign: render metrics:", err)
				os.Exit(1)
			}
		}
		if *metricsJSON != "" {
			data, err := snap.EncodeJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "owcampaign: marshal metrics:", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*metricsJSON, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "owcampaign: write:", err)
				os.Exit(1)
			}
			fmt.Println("campaign metrics written to", *metricsJSON)
		}
	}

	//owvet:allow nodeterminism: elapsed wall time is display-only and never enters campaign output files
	fmt.Printf("\n(wall time %.0fs)\n", time.Since(start).Seconds())

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "owcampaign: marshal:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "owcampaign: write:", err)
			os.Exit(1)
		}
		fmt.Println("rows written to", *jsonOut)
	}
}
