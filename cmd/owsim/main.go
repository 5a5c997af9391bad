// Command owsim runs a narrated end-to-end Otherworld demonstration: it
// boots the machine, runs an application workload, injects a burst of
// synthetic kernel faults, lets the failure manifest, microreboots into the
// crash kernel, resurrects the application, and verifies its state against
// the remote log — printing each stage as it happens.
//
// Usage:
//
//	owsim [-app name] [-seed n] [-faults n] [-protect] [-noharden]
//	      [-metrics] [-metrics-json file]
//	owsim -fleet N [-tiers "prog=tier,..."] [-fleet-batch] [-resurrect-workers n] [-seed n]
//
// The second form runs the fleet-recovery demo: N mixed server processes
// crashed at once and recovered through the streaming resurrection pass
// (index-assisted discovery, SLO-tier admission, pipelined install commit),
// summarized per tier. -fleet-batch runs the classic batch engine instead,
// for comparison.
//
// -metrics prints the machine's final metrics snapshot (the same registry
// the crash-surviving segment persists); -metrics-json writes it in the
// otherworld-metrics/1 format that owstat render/diff consume.
//
// A bad invocation (an unknown flag or application, a stray argument, a
// negative -fleet, a bad -tiers spec, or fleet flags without -fleet) exits 2
// before anything runs; a demo that ran and failed exits 1; -h exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"otherworld/internal/core"
	"otherworld/internal/experiment"
	"otherworld/internal/faultinject"
	"otherworld/internal/kernel"
	"otherworld/internal/sched"
	"otherworld/internal/workload"

	_ "otherworld/internal/apps" // register the paper's applications
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the selected demo, narrating it to stdout, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("owsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "MySQL", "application: vi, JOE, MySQL, Apache/PHP, BLCR, shell")
	seed := fs.Int64("seed", 2010, "experiment seed (replayable)")
	faults := fs.Int("faults", 30, "faults per injection burst")
	protect := fs.Bool("protect", false, "enable user-space protection (Section 4)")
	noharden := fs.Bool("noharden", false, "disable the Section 6 hardening fixes")
	resWorkers := fs.Int("resurrect-workers", 0, "-fleet only: goroutines that scan the fleet's resurrection candidates (0 = NumCPU); changes host wall time only")
	lazyInstall := fs.Bool("lazy-install", false, "demand-paged resurrection: resume at context install, CRC-validated copy-on-access pages, background sweeper")
	fleet := fs.Int("fleet", 0, "run the fleet-recovery demo at this population instead of the single-app demo (streaming resurrection with index-assisted discovery)")
	tierSpec := fs.String("tiers", "", "fleet tier overrides merged onto the defaults: program=tier pairs, e.g. sh=1 (default mysqld=0, apache-php=1, volano=1, sh=2)")
	fleetBatch := fs.Bool("fleet-batch", false, "fleet demo only: classic batch resurrection without the candidate index, for comparison against the streaming pass")
	showMetrics := fs.Bool("metrics", false, "print the final metrics snapshot")
	metricsJSON := fs.String("metrics-json", "", "write the final metrics snapshot as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	refuse := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "owsim: "+format+"\n", a...)
		return 2
	}
	var tiers map[string]int
	switch {
	case fs.NArg() != 0:
		return refuse("unexpected arguments %v", fs.Args())
	case *fleet < 0:
		return refuse("-fleet %d: a fleet needs at least one process", *fleet)
	case *fleet == 0 && (*tierSpec != "" || *fleetBatch || *resWorkers != 0):
		return refuse("-tiers, -fleet-batch and -resurrect-workers only apply to the fleet demo (-fleet N)")
	case *tierSpec != "":
		overrides, err := sched.ParseTierSpec(*tierSpec)
		if err != nil {
			return refuse("-tiers: %v", err)
		}
		tiers = experiment.DefaultFleetTiers()
		for prog, t := range overrides {
			tiers[prog] = t
		}
	}
	var err error
	if *fleet > 0 {
		err = runFleet(stdout, *fleet, *seed, tiers, *resWorkers, *lazyInstall, *fleetBatch, *showMetrics, *metricsJSON)
	} else {
		d, derr := experiment.DriverFor(*app, *seed+1)
		if derr != nil {
			return refuse("-app: %v", derr)
		}
		err = demo(stdout, *app, d, *seed, *faults, *protect, *noharden, *lazyInstall, *showMetrics, *metricsJSON)
	}
	if err != nil {
		fmt.Fprintln(stderr, "owsim:", err)
		return 1
	}
	return 0
}

// runFleet narrates the fleet-recovery scenario: hundreds of mixed servers
// crashed at once, recovered through either the streaming pass or (with
// -fleet-batch) the classic batch engine, and summarized per SLO tier.
// tiers, when not nil, replaces the default SLO tiers.
func runFleet(w io.Writer, population int, seed int64, tiers map[string]int, resWorkers int, lazy, batch, showMetrics bool, metricsJSON string) error {
	cfg := experiment.DefaultFleet(population, seed)
	cfg.Workers = resWorkers
	cfg.Lazy = lazy
	if batch {
		cfg.Stream = false
		cfg.IndexSlots = 0
	}
	if tiers != nil {
		cfg.Tiers = tiers
	}
	mode := "streaming"
	if batch {
		mode = "batch"
	}
	fmt.Fprintf(w, "== Otherworld fleet demo: %d processes, %s resurrection (seed %d)\n\n",
		population, mode, seed)
	res, err := experiment.FleetRecovery(cfg)
	if err != nil {
		return err
	}
	m := res.Machine
	fmt.Fprintf(w, "[%s] fleet crashed and recovered: %d candidates, interruption %.0fs (serial model)\n",
		m.HW.Clock, res.Population, res.Outcome.SerialInterruption.Seconds())
	fmt.Fprint(w, res.RenderFleetTable())
	return emitMetrics(w, m, showMetrics, metricsJSON)
}

// emitMetrics handles -metrics/-metrics-json at every exit path that has a
// live machine: the snapshot is collected once and shared by both sinks.
func emitMetrics(w io.Writer, m *core.Machine, show bool, jsonFile string) error {
	if !show && jsonFile == "" {
		return nil
	}
	snap := m.MetricsSnapshot()
	if show {
		fmt.Fprintf(w, "\nfinal metrics snapshot (%d series):\n", len(snap.Points))
		if err := snap.RenderTable(w); err != nil {
			return err
		}
	}
	if jsonFile != "" {
		data, err := snap.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonFile, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "metrics snapshot written to", jsonFile)
	}
	return nil
}

// demo narrates the single-application demo of app, which d drives. The
// application is the one resurrection candidate, so the scan pool is one
// goroutine wide and the outage has one schedule whatever the worker count.
func demo(w io.Writer, app string, d workload.Driver, seed int64, faults int, protect, noharden bool, lazyInstall, showMetrics bool, metricsJSON string) error {
	opts := core.DefaultOptions()
	opts.UserSpaceProtection = protect
	opts.Seed = seed
	opts.LazyInstall = lazyInstall
	if noharden {
		opts.Hardening = kernel.NoHardening()
	}
	fmt.Fprintf(w, "== Otherworld demo: %s (seed %d, protection %v, hardening %v)\n\n",
		app, seed, protect, !noharden)

	m, err := core.NewMachine(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "[%s] machine booted: %s\n", m.HW.Clock, m.HW)
	fmt.Fprintf(w, "[%s] crash kernel image resident and protected\n", m.HW.Clock)

	if err := d.Start(m); err != nil {
		return err
	}
	fmt.Fprintf(w, "[%s] %s started (pid %d)\n", m.HW.Clock, d.Name(), m.K.Procs()[0].PID)

	workload.RunUntilIdle(m, d, 120, 5000)
	fmt.Fprintf(w, "[%s] workload warm: %d operations acknowledged\n", m.HW.Clock, d.Acked())

	inj := faultinject.New(seed ^ 0xFA17)
	fs, err := inj.InjectBurst(m.K, faults)
	if err != nil {
		return err
	}
	byClass := map[string]int{}
	for _, f := range fs {
		byClass[f.Class.String()]++
	}
	fmt.Fprintf(w, "[%s] injected %d faults: %v\n", m.HW.Clock, len(fs), byClass)

	var res kernel.RunResult
	for round := 0; round < 8 && res.Panic == nil; round++ {
		res = workload.RunUntilIdle(m, d, 60, 2400)
	}
	if res.Panic == nil {
		fmt.Fprintf(w, "[%s] no injected fault manifested (the paper discards these runs)\n", m.HW.Clock)
		return emitMetrics(w, m, showMetrics, metricsJSON)
	}
	fmt.Fprintf(w, "[%s] KERNEL FAILURE: %v\n", m.HW.Clock, res.Panic)

	out, err := m.HandleFailure()
	if err != nil {
		return err
	}
	if out.Result != core.ResultRecovered {
		fmt.Fprintf(w, "[%s] transfer of control FAILED: %s\n", m.HW.Clock, out.Transfer.Reason)
		fmt.Fprintf(w, "[%s] falling back to a full reboot (all volatile state lost)\n", m.HW.Clock)
		if err := m.ColdReboot(); err != nil {
			return err
		}
		return emitMetrics(w, m, showMetrics, metricsJSON)
	}
	fmt.Fprintf(w, "[%s] crash kernel booted; %d resurrection candidates found\n",
		m.HW.Clock, len(out.Report.Candidates))
	for _, pr := range out.Report.Procs {
		fmt.Fprintf(w, "[%s]   pid %d (%s): %s", m.HW.Clock, pr.Candidate.PID, pr.Candidate.Name, pr.Outcome)
		if pr.CrashProcCalled {
			fmt.Fprintf(w, " (crash procedure ran, missing: %s)", pr.Missing)
		}
		if pr.Err != nil {
			fmt.Fprintf(w, " — %v", pr.Err)
		}
		fmt.Fprintf(w, "; %d pages copied, %d re-staged, %d dirty pages flushed",
			pr.PagesCopied, pr.PagesRestaged, pr.DirtyFlushed)
		if pr.PagesSpeculated > 0 {
			fmt.Fprintf(w, ", %d speculated", pr.PagesSpeculated)
		}
		if pr.SpecFallback != "" {
			fmt.Fprintf(w, " (speculation fell back: %s)", pr.SpecFallback)
		}
		fmt.Fprintln(w)
	}
	acct := out.Report.Acct
	fmt.Fprintf(w, "[%s] crash kernel read %d KB of main-kernel data (%.0f%% page tables)\n",
		m.HW.Clock, acct.KernelDataBytes()/1024, 100*acct.PageTableFraction())
	fmt.Fprintf(w, "[%s] morphed into main kernel; service interruption %.0fs\n",
		m.HW.Clock, out.Interruption.Seconds())

	if err := d.Reattach(m); err != nil {
		return err
	}
	before := d.Acked()
	workload.RunUntilIdle(m, d, 120, 5000)
	fmt.Fprintf(w, "[%s] workload resumed: %d -> %d operations\n", m.HW.Clock, before, d.Acked())

	if err := d.Verify(m); err != nil {
		fmt.Fprintf(w, "[%s] VERIFICATION FAILED: %v\n", m.HW.Clock, err)
		return emitMetrics(w, m, showMetrics, metricsJSON)
	}
	fmt.Fprintf(w, "[%s] application state verified against the remote log: no data lost\n", m.HW.Clock)
	return emitMetrics(w, m, showMetrics, metricsJSON)
}
