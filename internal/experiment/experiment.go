// Package experiment reproduces the paper's evaluation (Section 6): the
// fault-injection campaigns behind Table 5, the protection-overhead
// measurements behind Table 3, the resurrection byte accounting behind
// Table 4, the service-interruption timings behind Table 6, and the
// 89%→97% hardening ablation.
package experiment

import (
	"fmt"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/disk"
	"otherworld/internal/faultinject"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/resurrect"
	"otherworld/internal/sim"
	"otherworld/internal/spans"
	"otherworld/internal/trace"
	"otherworld/internal/workload"
)

// Outcome classifies one fault-injection experiment, mapping onto Table 5's
// columns.
type Outcome int

// Experiment outcomes.
const (
	// OutcomeNoKernelFault: the injected faults never manifested; the
	// paper discards these (~20% of runs).
	OutcomeNoKernelFault Outcome = iota
	// OutcomeSuccess: the application was resurrected and its data
	// verified against the remote log.
	OutcomeSuccess
	// OutcomeBootFailure: control never reached the crash kernel
	// (Table 5, "failure to boot the crash kernel").
	OutcomeBootFailure
	// OutcomeResurrectFailure: main-kernel structure corruption (or an
	// unrecoverable resource) prevented resurrection (Table 5 column 4).
	OutcomeResurrectFailure
	// OutcomeDataCorruption: the application came back but its data
	// diverged from the remote log (Table 5 last column).
	OutcomeDataCorruption
)

func (o Outcome) String() string {
	switch o {
	case OutcomeNoKernelFault:
		return "no-kernel-fault"
	case OutcomeSuccess:
		return "success"
	case OutcomeBootFailure:
		return "boot-failure"
	case OutcomeResurrectFailure:
		return "resurrect-failure"
	case OutcomeDataCorruption:
		return "data-corruption"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// AppNames lists the five Table 5 applications.
var AppNames = []string{"vi", "JOE", "MySQL", "Apache/PHP", "BLCR"}

// DriverFor builds the workload driver for one of the paper's application
// names (the Table 5 set plus Volano and the shell).
func DriverFor(app string, seed int64) (workload.Driver, error) {
	switch app {
	case "vi":
		return workload.NewEditorDriver("vi", "vi", seed), nil
	case "JOE":
		return workload.NewEditorDriver("joe", "joe", seed), nil
	case "MySQL":
		return workload.NewMySQLDriver(seed), nil
	case "Apache/PHP":
		return workload.NewApacheDriver(seed), nil
	case "BLCR":
		return workload.NewBLCRDriver(seed), nil
	case "Volano":
		return workload.NewVolanoDriver(seed), nil
	case "shell":
		return workload.NewShellDriver(seed), nil
	case "WAL":
		return workload.NewWALDriver(seed, false), nil
	case "WAL-bug":
		return workload.NewWALDriver(seed, true), nil
	}
	return nil, fmt.Errorf("experiment: unknown application %q", app)
}

// Config parameterizes one fault-injection experiment.
type Config struct {
	// App is the Table 5 application name.
	App string
	// Machine is the experiment machine; its Seed makes the experiment
	// replayable, and also seeds the workload, the warm-up and the fault
	// burst.
	Machine core.Options
	// Baseline skips Otherworld entirely: at kernel failure the machine
	// cold-reboots (the disk takes its crash consequences, every dirty page
	// orphaned) and the workload restarts the application from disk — the
	// "just reboot" recovery Otherworld is compared against.
	Baseline bool
	// BuildSpans reconstructs the post-mortem causal span tree (package
	// spans) onto Result.Spans after a recovery. Off by default: campaigns
	// aggregate percentiles without paying for per-run trees.
	BuildSpans bool
}

// faultsPerRun is the injection burst size: the paper injects 30 faults
// per experiment.
const faultsPerRun = 30

// DefaultConfig returns the paper's experiment parameters: app on the
// core.DefaultOptions machine seeded with seed.
func DefaultConfig(app string, seed int64) Config {
	opts := core.DefaultOptions()
	opts.Seed = seed
	return Config{App: app, Machine: opts}
}

// Result records one experiment.
type Result struct {
	Outcome Outcome
	// StructCorruption is set when the resurrection failure was a
	// detected corruption of main-kernel records (the "3 cases out of
	// 2000" statistic).
	StructCorruption bool
	// AckedOps is the workload progress across the whole experiment.
	AckedOps int
	// Attribution is the structured failure key, set for every non-success
	// outcome: which pipeline stage failed, the resurrection phase reached,
	// the dead kernel's panic kind and the normalized reason.
	Attribution Attribution
	// Interruption is the serial-model outage of the recovery (zero when
	// the run never reached a recovery, or cold-rebooted). The experiment
	// resurrects one application, and a one-candidate pass has the same
	// schedule at every worker width, so this is the outage at any width.
	Interruption time.Duration
	// DataChecked is true when the driver audited the application's on-disk
	// state against its recovery invariants after the crash; DataErr is the
	// violation found (nil when the data survived intact).
	DataChecked bool
	DataErr     error
	// DiskCrash is the block-layer crash model's report (nil when the model
	// is disabled or no crash fired).
	DiskCrash *disk.CrashReport
	// FirstTouch is the demand-fault stall sequence the resumed processes
	// paid under the lazy install (empty when eager): the samples behind
	// the Table 6 first-touch percentiles and the span plane's lazy track.
	// Worker-count-independent — touches resolve on the serial post-resume
	// execution path.
	FirstTouch []time.Duration
	// Spans is the reconstructed causal span tree for the recovery (nil
	// unless Config.BuildSpans was set and the run reached resurrection).
	Spans *spans.Tree
}

// Run executes one complete fault-injection experiment: boot, warm up the
// workload, inject a burst of faults, run until a kernel failure manifests
// (or give up and discard), recover, reattach the workload, run further,
// and verify against the remote log. The recovery is a microreboot and
// resurrection or, for Config.Baseline, a cold reboot.
func Run(cfg Config) Result {
	out, _ := run(cfg)
	return out
}

// run is Run that also returns the experiment's machine (nil when it
// never started), for tests that inspect what the run left on it.
func run(cfg Config) (Result, *core.Machine) {
	m, d, err := startApp(cfg.Machine, cfg.App, cfg.Machine.Seed+7777)
	if err != nil {
		return Result{Outcome: OutcomeResurrectFailure,
			Attribution: attribute(StageSetup, "", err.Error(), nil, nil)}, nil
	}
	out := runBody(cfg, m, d)
	if cfg.Machine.DiskCrash.Enabled {
		if dm := m.DiskModel(); dm != nil && dm.Report().Fired {
			rep := dm.Report()
			out.DiskCrash = &rep
		}
	}
	return out, m
}

// startApp boots a machine with opts and starts app's workload on it, the
// driver seeded with driverSeed.
func startApp(opts core.Options, app string, driverSeed int64) (*core.Machine, workload.Driver, error) {
	m, err := core.NewMachine(opts)
	if err != nil {
		return nil, nil, err
	}
	d, err := DriverFor(app, driverSeed)
	if err != nil {
		return nil, nil, err
	}
	if err := d.Start(m); err != nil {
		return nil, nil, err
	}
	return m, d, nil
}

// crashAndRecover oopses m's kernel with reason and recovers it through
// Otherworld, failing unless control reached the crash kernel.
func crashAndRecover(m *core.Machine, reason string) (*core.FailureOutcome, error) {
	if err := m.K.InjectOops(reason); err == nil {
		return nil, fmt.Errorf("InjectOops did not panic")
	}
	fo, err := m.HandleFailure()
	if err != nil {
		return nil, err
	}
	if fo.Result != core.ResultRecovered {
		return nil, fmt.Errorf("transfer failed: %s", fo.Transfer.Reason)
	}
	return fo, nil
}

// runBody is Run on the started application d: it injects the fault burst,
// and once the kernel fails it recovers, verifies and audits the run.
func runBody(cfg Config, m *core.Machine, d workload.Driver) Result {
	// Warm up for a seed-dependent amount of work ("we injected faults
	// after a random amount of time").
	warm := warmupOps(cfg.Machine.Seed)
	workload.RunUntilIdle(m, d, warm, warm*40)

	inj := faultinject.New(cfg.Machine.Seed ^ 0x5EEDFA17)
	if cfg.Machine.DiskCrash.Enabled {
		// With the block layer modeled, land the burst at a seeded point
		// INSIDE the application's request cycle instead of at the post-warmup
		// idle. Corruption manifests at a function's first post-injection
		// execution, so injecting into a drained machine pins the crash to the
		// first syscall after idle — and no crash could ever catch a write
		// acknowledged but not yet synced. Queuing work and advancing a seeded
		// number of quanta first lets the crash land on any write/fsync
		// boundary, which is the whole point of auditing on-disk state.
		r := sim.NewRNG(cfg.Machine.Seed ^ 0x0B10CF7A)
		d.Pump(m, 24)
		m.Run(1 + r.Intn(120))
	}
	if _, err := inj.InjectBurst(m.K, faultsPerRun); err != nil {
		return Result{Outcome: OutcomeResurrectFailure,
			Attribution: attribute(StageSetup, "", err.Error(), nil, nil)}
	}
	if cfg.Machine.DiskCrash.Enabled {
		// Schedule the crash's block-layer consequences alongside the
		// memory faults; they fire when the kernel actually goes down.
		inj.ArmDiskCrash(m.K, m.DiskModel())
	}

	// Run until a failure manifests; several pump rounds bound the run.
	var res kernel.RunResult
	for round := 0; round < 6; round++ {
		res = workload.RunUntilIdle(m, d, 60, 2400)
		if res.Panic != nil {
			break
		}
	}
	if res.Panic == nil {
		return Result{Outcome: OutcomeNoKernelFault, AckedOps: d.Acked(),
			Attribution: attribute(StageNoFault, "", "injected faults never manifested", nil, nil)}
	}

	var (
		out  Result
		fo   *core.FailureOutcome
		dead *trace.Parsed // the dead kernel's recovered flight recorder
	)
	// fail is every post-crash failure exit: it records the outcome and its
	// attribution and audits the platter, which can be checked even when
	// the process did not survive. A run that reached verification was
	// audited there already.
	fail := func(o Outcome, stage, phase, reason string) Result {
		out.Outcome = o
		out.Attribution = attribute(stage, phase, reason, dead, res.Panic)
		if !out.DataChecked {
			checkData(m, d, &out)
		}
		return out
	}
	if cfg.Baseline {
		// The no-Otherworld control: the disk takes its crash consequences
		// with every dirty page orphaned, the machine cold-reboots, and the
		// workload restarts the application from whatever the platter holds.
		if _, err := m.CrashDiskForReboot(); err != nil {
			return fail(OutcomeBootFailure, StageTransfer, "", err.Error())
		}
		if err := m.ColdReboot(); err != nil {
			return fail(OutcomeBootFailure, StageTransfer, "", err.Error())
		}
	} else {
		var err error
		if fo, err = m.HandleFailure(); fo != nil {
			dead = fo.Trace
		}
		if err != nil {
			return fail(OutcomeBootFailure, StageTransfer, "", err.Error())
		}
		if fo.Result != core.ResultRecovered {
			return fail(OutcomeBootFailure, StageTransfer, "", fo.Transfer.Reason)
		}
		// The outage is worker-count-independent, which keeps campaign
		// output replayable from -seed alone.
		out.Interruption = fo.SerialInterruption

		var pr *resurrect.ProcReport
		for i := range fo.Report.Procs {
			if fo.Report.Procs[i].Candidate.Program == d.Program() {
				pr = &fo.Report.Procs[i]
				break
			}
		}
		switch {
		case pr == nil:
			out.StructCorruption = true
			return fail(OutcomeResurrectFailure, StageResurrect, resurrect.PhaseParse.String(),
				"process not found in dead kernel's process list")
		case pr.Outcome == resurrect.OutcomeGaveUp:
			// The crash procedure's own integrity check found the
			// application state damaged — detected data corruption.
			return fail(OutcomeDataCorruption, StageVerify, failedPhase(pr),
				"crash procedure found state corrupted and gave up")
		case pr.Outcome != resurrect.OutcomeContinued && pr.Outcome != resurrect.OutcomeRestarted:
			out.StructCorruption = pr.Err != nil && layout.IsCorruption(pr.Err)
			reason := "resurrection failed"
			if pr.Err != nil {
				reason = pr.Err.Error()
			}
			return fail(OutcomeResurrectFailure, StageResurrect, failedPhase(pr), reason)
		}
	}

	if err := d.Reattach(m); err != nil {
		return fail(OutcomeResurrectFailure, StageWorkload, "", err.Error())
	}
	if post := workload.RunUntilIdle(m, d, 60, 2400); post.Panic != nil {
		// A second, fresh-kernel failure right after recovery: treat as
		// a resurrection failure (should be vanishingly rare).
		return fail(OutcomeResurrectFailure, StageWorkload, "", post.Panic.Error())
	}
	out.AckedOps = d.Acked()
	verr := d.Verify(m)
	checkData(m, d, &out)
	captureSpanPlane(cfg, m, fo, &out)
	if verr == nil {
		// The process may have come back with its in-memory state verified
		// while the platter broke a recovery invariant: that is data
		// corruption an application restart would inherit.
		verr = out.DataErr
	}
	if verr != nil {
		return fail(OutcomeDataCorruption, StageVerify, "", verr.Error())
	}
	out.Outcome = OutcomeSuccess
	return out
}

// captureSpanPlane closes the experiment's observability loop after a
// recovery: it records the span-boundary marks (resume, data audit) on the
// new kernel's flight recorder — the only runtime trace the causal span
// plane adds, and it is post-failure — snapshots the first-touch stall
// sequence onto the result, and, when Config.BuildSpans asks for it,
// reconstructs the full causal span tree at the canonical analysis width.
// A cold reboot (fo nil) resurrected nothing and has no span plane.
func captureSpanPlane(cfg Config, m *core.Machine, fo *core.FailureOutcome, out *Result) {
	if fo == nil || fo.Report == nil {
		return
	}
	if tr := markResume(m, fo); tr != nil && out.DataChecked {
		var b uint64
		if out.DataErr != nil {
			b = 1
		}
		tr.Record(trace.Event{Kind: trace.KindSpanMark, A: trace.SpanMarkAudit, B: b})
	}
	out.FirstTouch = append([]time.Duration(nil), fo.Report.FirstTouch...)
	if !cfg.BuildSpans {
		return
	}
	derr := ""
	if out.DataErr != nil {
		derr = out.DataErr.Error()
	}
	tree, err := buildSpanTree(m, fo, spans.Input{App: cfg.App, Seed: cfg.Machine.Seed,
		Lazy: cfg.Machine.LazyInstall, DataChecked: out.DataChecked, DataErr: derr})
	if err == nil {
		out.Spans = tree
	}
}

// checkData audits the application's on-disk state against its recovery
// invariants, when the driver supports it.
func checkData(m *core.Machine, d workload.Driver, out *Result) {
	ck, ok := d.(workload.DataInvariantChecker)
	if !ok {
		return
	}
	out.DataChecked = true
	out.DataErr = ck.CheckDataInvariants(m)
}

// warmupOps derives the seed-dependent warm-up length. The modulus is
// clamped non-negative: Go's % keeps the dividend's sign, so a negative
// seed would otherwise shrink the warm-up below its floor (and below zero).
func warmupOps(seed int64) int {
	off := seed % 97
	if off < 0 {
		off += 97
	}
	return 40 + int(off)
}
