// Package experiment reproduces the paper's evaluation (Section 6): the
// fault-injection campaigns behind Table 5, the protection-overhead
// measurements behind Table 3, the resurrection byte accounting behind
// Table 4, the service-interruption timings behind Table 6, and the
// 89%→97% hardening ablation.
package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/disk"
	"otherworld/internal/faultinject"
	"otherworld/internal/fs"
	"otherworld/internal/hw"
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
	// Seed makes the experiment replayable.
	Seed int64
	// Protection enables user-space protection (Section 4).
	Protection bool
	// Hardening selects the Section 6 fixes (FullHardening by default via
	// DefaultConfig).
	Hardening kernel.Hardening
	// VerifyCRC enables record checksums.
	VerifyCRC bool
	// FaultsPerRun is the injection burst size (the paper uses 30).
	FaultsPerRun int
	// MemoryMB sizes the experiment machine.
	MemoryMB int
	// ResurrectWorkers is the resurrection pipeline's worker-pool width
	// (0 = NumCPU). The pool only changes the modeled interruption time;
	// every other result field is byte-identical at any width.
	ResurrectWorkers int
	// LazyInstall enables the demand-paged resurrection install: processes
	// resume as soon as their records parse, with page copies completed
	// copy-on-access (CRC-validated) or by the background sweeper.
	LazyInstall bool
	// Stream runs resurrection as the streaming pass: SLO-tier admission
	// ordering and pipelined per-candidate install commit instead of the
	// classic scan-everything-then-install batch.
	Stream bool
	// IndexSlots sizes the main kernel's candidate index in the crash
	// reservation (0 = none); discovery salvages it to skip the full
	// process-list walk.
	IndexSlots int
	// DiskCrash enables the block-layer crash model: at kernel-crash time
	// the volatile write cache may roll back, the in-flight sector write may
	// tear, and dirty page-cache pages that resurrection did not flush drain
	// to the platter in an undefined-but-seeded order.
	DiskCrash bool
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

// DefaultConfig returns the paper's experiment parameters.
func DefaultConfig(app string, seed int64) Config {
	return Config{
		App:          app,
		Seed:         seed,
		Hardening:    kernel.FullHardening(),
		VerifyCRC:    true,
		FaultsPerRun: 30,
		MemoryMB:     256,
	}
}

// Result records one experiment.
type Result struct {
	Outcome Outcome
	// Panic is the kernel failure, if one manifested.
	Panic *kernel.PanicEvent
	// TransferReason explains a failed transfer.
	TransferReason string
	// ResurrectErr explains a failed resurrection.
	ResurrectErr error
	// VerifyErr explains detected data corruption.
	VerifyErr error
	// StructCorruption is set when the resurrection failure was a
	// detected corruption of main-kernel records (the "3 cases out of
	// 2000" statistic).
	StructCorruption bool
	// AckedOps is the workload progress across the whole experiment.
	AckedOps int
	// Detail is the structured failure attribution, set for every
	// non-success outcome: which pipeline stage failed, the resurrection
	// phase reached, and the panic context salvaged from the dead
	// kernel's flight recorder.
	Detail *FailureDetail
	// Trace is the dead kernel's recovered flight-recorder ring (nil
	// when tracing is disabled or no ring was recovered).
	Trace *trace.Parsed
	// Interruption is the serial-model outage of the recovery (zero when
	// the run never reached a recovery). Worker-count-independent.
	Interruption time.Duration
	// ParallelInterruption is the outage under the parallel schedule model
	// evaluated at resurrect.CanonicalWorkers, so campaign output does not
	// depend on the machine the campaign ran on.
	ParallelInterruption time.Duration
	// Duration is the experiment machine's virtual clock when the
	// experiment finished: the modeled cost of the whole run (boot, warmup,
	// failure, recovery, verification). The campaign pool's schedule model
	// (poolSchedule) consumes these spans; like every other field it
	// is a pure function of the seed.
	Duration time.Duration
	// DataChecked is true when the driver audited the application's on-disk
	// state against its recovery invariants after the crash; DataErr is the
	// violation found (nil when the data survived intact).
	DataChecked bool
	DataErr     error
	// DiskCrash is the block-layer crash model's report (nil when the model
	// is disabled or no crash fired).
	DiskCrash *disk.CrashReport
	// DiskFingerprint hashes the post-experiment disk image (every file's
	// path and contents) when the crash model is enabled: the replay and
	// worker-width determinism tests compare it byte for byte.
	DiskFingerprint string
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
// (or give up and discard), microreboot, resurrect, reattach the workload,
// run further, and verify against the remote log.
func Run(cfg Config) Result {
	var m *core.Machine
	out := runBody(cfg, &m)
	if m != nil {
		out.Duration = m.HW.Clock.Now()
		if cfg.DiskCrash {
			if dm := m.DiskModel(); dm != nil && dm.Report().Fired {
				rep := dm.Report()
				out.DiskCrash = &rep
			}
			out.DiskFingerprint = DiskFingerprint(m.FS)
		}
	}
	return out
}

// DiskFingerprint hashes a disk image: every file path, size and content in
// the file system's sorted order. Two runs with the same seed must produce
// identical fingerprints at any campaign or resurrection worker width.
// Contents stream through one fixed buffer rather than a copy of each
// file, so f must not change while it runs.
func DiskFingerprint(f *fs.FlatFS) string {
	h := sha256.New()
	var n [8]byte
	buf := make([]byte, 32<<10)
	for _, path := range f.List() {
		size, err := f.Size(path)
		if err != nil {
			continue
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(n[:], uint64(size))
		h.Write(n[:])
		for off := int64(0); off < size; {
			k, err := f.ReadAt(path, off, buf[:min(int64(len(buf)), size-off)])
			if err != nil || k == 0 {
				break
			}
			h.Write(buf[:k])
			off += int64(k)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runBody is Run without the duration stamp; it publishes the experiment
// machine through mp as soon as one exists so Run can read the final
// virtual clock on every exit path.
func runBody(cfg Config, mp **core.Machine) Result {
	if cfg.FaultsPerRun <= 0 {
		cfg.FaultsPerRun = 30
	}
	if cfg.MemoryMB <= 0 {
		cfg.MemoryMB = 256
	}
	opts := core.DefaultOptions()
	opts.HW = hw.Config{
		MemoryBytes:     cfg.MemoryMB << 20,
		NumCPUs:         2,
		TLBEntries:      64,
		WatchdogEnabled: true,
	}
	opts.CrashRegionMB = 16
	opts.VerifyCRC = cfg.VerifyCRC
	opts.UserSpaceProtection = cfg.Protection
	opts.Hardening = cfg.Hardening
	opts.Seed = cfg.Seed
	opts.Resurrection.Workers = cfg.ResurrectWorkers
	opts.Resurrection.Stream = cfg.Stream
	opts.LazyInstall = cfg.LazyInstall
	opts.CandidateIndexSlots = cfg.IndexSlots
	opts.DiskCrash.Enabled = cfg.DiskCrash

	m, err := core.NewMachine(opts)
	if err != nil {
		return Result{Outcome: OutcomeResurrectFailure, ResurrectErr: err,
			Detail: newDetail(StageSetup, "", err.Error(), nil, nil)}
	}
	*mp = m
	d, err := DriverFor(cfg.App, cfg.Seed+7777)
	if err != nil {
		return Result{Outcome: OutcomeResurrectFailure, ResurrectErr: err,
			Detail: newDetail(StageSetup, "", err.Error(), nil, nil)}
	}
	if err := d.Start(m); err != nil {
		return Result{Outcome: OutcomeResurrectFailure, ResurrectErr: err,
			Detail: newDetail(StageSetup, "", err.Error(), nil, nil)}
	}

	// Warm up for a seed-dependent amount of work ("we injected faults
	// after a random amount of time").
	warm := warmupOps(cfg.Seed)
	workload.RunUntilIdle(m, d, warm, warm*40)

	inj := faultinject.New(cfg.Seed ^ 0x5EEDFA17)
	if cfg.DiskCrash {
		// With the block layer modeled, land the burst at a seeded point
		// INSIDE the application's request cycle instead of at the post-warmup
		// idle. Corruption manifests at a function's first post-injection
		// execution, so injecting into a drained machine pins the crash to the
		// first syscall after idle — and no crash could ever catch a write
		// acknowledged but not yet synced. Queuing work and advancing a seeded
		// number of quanta first lets the crash land on any write/fsync
		// boundary, which is the whole point of auditing on-disk state.
		r := sim.NewRNG(cfg.Seed ^ 0x0B10CF7A)
		d.Pump(m, 24)
		m.Run(1 + r.Intn(120))
	}
	if _, err := inj.InjectBurst(m.K, cfg.FaultsPerRun); err != nil {
		return Result{Outcome: OutcomeResurrectFailure, ResurrectErr: err,
			Detail: newDetail(StageSetup, "", err.Error(), nil, nil)}
	}
	if cfg.DiskCrash {
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
		// Discarded run; the live ring still shows what was injected.
		var tr *trace.Parsed
		if reg := m.TraceRegion(); reg.Frames > 0 {
			tr = trace.Parse(m.HW.Mem, reg)
		}
		return Result{Outcome: OutcomeNoKernelFault, AckedOps: d.Acked(), Trace: tr,
			Detail: newDetail(StageNoFault, "", "injected faults never manifested", tr, nil)}
	}
	out := Result{Panic: res.Panic}
	if cfg.Baseline {
		return runBaseline(m, d, out)
	}

	fo, err := m.HandleFailure()
	if fo != nil {
		out.Trace = fo.Trace
	}
	if err != nil {
		out.Outcome = OutcomeBootFailure
		out.TransferReason = err.Error()
		out.Detail = newDetail(StageTransfer, "", err.Error(), out.Trace, res.Panic)
		checkData(m, d, &out)
		return out
	}
	if fo.Result != core.ResultRecovered {
		out.Outcome = OutcomeBootFailure
		out.TransferReason = fo.Transfer.Reason
		out.Detail = newDetail(StageTransfer, "", fo.Transfer.Reason, out.Trace, res.Panic)
		checkData(m, d, &out)
		return out
	}
	// Recovery happened: record the outage under both schedule models. Both
	// are worker-count-independent (the serial correction and the canonical
	// re-evaluation cancel the live pool width), keeping campaign output
	// replayable from -seed alone.
	out.Interruption = fo.SerialInterruption
	out.ParallelInterruption = fo.InterruptionAt(resurrect.CanonicalWorkers)

	// Locate our application's resurrection report.
	var found bool
	for _, pr := range fo.Report.Procs {
		if pr.Candidate.Program == d.Program() {
			found = true
			if pr.Outcome == resurrect.OutcomeContinued || pr.Outcome == resurrect.OutcomeRestarted {
				break
			}
			if pr.Outcome == resurrect.OutcomeGaveUp {
				// The crash procedure's own integrity check found the
				// application state damaged — detected data corruption.
				out.Outcome = OutcomeDataCorruption
				out.VerifyErr = fmt.Errorf("crash procedure found state corrupted and gave up")
				out.Detail = newDetail(StageVerify, failedPhase(pr), out.VerifyErr.Error(), out.Trace, res.Panic)
				checkData(m, d, &out)
				return out
			}
			out.Outcome = OutcomeResurrectFailure
			out.ResurrectErr = pr.Err
			out.StructCorruption = pr.Err != nil && layout.IsCorruption(pr.Err)
			reason := "resurrection failed"
			if pr.Err != nil {
				reason = pr.Err.Error()
			}
			out.Detail = newDetail(StageResurrect, failedPhase(pr), reason, out.Trace, res.Panic)
			checkData(m, d, &out)
			return out
		}
	}
	if !found {
		out.Outcome = OutcomeResurrectFailure
		out.ResurrectErr = fmt.Errorf("process not found in dead kernel's process list")
		out.StructCorruption = true
		out.Detail = newDetail(StageResurrect, resurrect.PhaseParse.String(),
			out.ResurrectErr.Error(), out.Trace, res.Panic)
		checkData(m, d, &out)
		return out
	}

	if err := d.Reattach(m); err != nil {
		out.Outcome = OutcomeResurrectFailure
		out.ResurrectErr = err
		out.Detail = newDetail(StageWorkload, "", err.Error(), out.Trace, res.Panic)
		checkData(m, d, &out)
		return out
	}
	post := workload.RunUntilIdle(m, d, 60, 2400)
	if post.Panic != nil {
		// A second, fresh-kernel failure right after recovery: treat as
		// a resurrection failure (should be vanishingly rare).
		out.Outcome = OutcomeResurrectFailure
		out.ResurrectErr = post.Panic
		out.Detail = newDetail(StageWorkload, "", post.Panic.Error(), out.Trace, res.Panic)
		checkData(m, d, &out)
		return out
	}
	out.AckedOps = d.Acked()
	if err := d.Verify(m); err != nil {
		out.Outcome = OutcomeDataCorruption
		out.VerifyErr = err
		out.Detail = newDetail(StageVerify, "", err.Error(), out.Trace, res.Panic)
		checkData(m, d, &out)
		captureSpanPlane(cfg, m, fo, &out)
		return out
	}
	checkData(m, d, &out)
	captureSpanPlane(cfg, m, fo, &out)
	if out.DataErr != nil {
		// The process came back and its in-memory state verified, but the
		// platter broke a recovery invariant: that is data corruption an
		// application restart would inherit.
		out.Outcome = OutcomeDataCorruption
		out.VerifyErr = out.DataErr
		out.Detail = newDetail(StageVerify, "", out.DataErr.Error(), out.Trace, res.Panic)
		return out
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
func captureSpanPlane(cfg Config, m *core.Machine, fo *core.FailureOutcome, out *Result) {
	if fo == nil || fo.Report == nil {
		return
	}
	if tr := m.Tracer(); tr != nil {
		tr.Record(trace.Event{Kind: trace.KindSpanMark, A: trace.SpanMarkResume,
			B: uint64(fo.Report.Succeeded())})
		if out.DataChecked {
			var b uint64
			if out.DataErr != nil {
				b = 1
			}
			tr.Record(trace.Event{Kind: trace.KindSpanMark, A: trace.SpanMarkAudit, B: b})
		}
	}
	out.FirstTouch = append([]time.Duration(nil), fo.Report.FirstTouch...)
	if !cfg.BuildSpans {
		return
	}
	var post []trace.Event
	if reg := m.TraceRegion(); reg.Frames > 0 {
		if p := trace.Parse(m.HW.Mem, reg); p != nil {
			post = p.Events
		}
	}
	derr := ""
	if out.DataErr != nil {
		derr = out.DataErr.Error()
	}
	tree, err := spans.Build(spans.Input{
		App:          cfg.App,
		Seed:         cfg.Seed,
		Lazy:         cfg.LazyInstall,
		Workers:      resurrect.CanonicalWorkers,
		Report:       fo.Report,
		Interruption: fo.SerialInterruption,
		PostEvents:   post,
		DataChecked:  out.DataChecked,
		DataErr:      derr,
	})
	if err == nil {
		out.Spans = tree
	}
}

// checkData audits the application's on-disk state against its recovery
// invariants, when the driver supports it. It runs on every post-crash exit
// path — the platter can be checked even when the process did not survive.
func checkData(m *core.Machine, d workload.Driver, out *Result) {
	ck, ok := d.(workload.DataInvariantChecker)
	if !ok {
		return
	}
	out.DataChecked = true
	out.DataErr = ck.CheckDataInvariants(m)
}

// runBaseline is the no-Otherworld control: the kernel failure cold-reboots
// the machine (the disk taking its crash consequences with every dirty page
// orphaned), and the workload restarts the application from whatever the
// platter holds — comparing "just reboot" recovery against resurrection.
func runBaseline(m *core.Machine, d workload.Driver, out Result) Result {
	if _, err := m.CrashDiskForReboot(); err != nil {
		out.Outcome = OutcomeBootFailure
		out.TransferReason = err.Error()
		out.Detail = newDetail(StageTransfer, "", err.Error(), nil, out.Panic)
		checkData(m, d, &out)
		return out
	}
	if err := m.ColdReboot(); err != nil {
		out.Outcome = OutcomeBootFailure
		out.TransferReason = err.Error()
		out.Detail = newDetail(StageTransfer, "", err.Error(), nil, out.Panic)
		checkData(m, d, &out)
		return out
	}
	if err := d.Reattach(m); err != nil {
		out.Outcome = OutcomeResurrectFailure
		out.ResurrectErr = err
		out.Detail = newDetail(StageWorkload, "", err.Error(), nil, out.Panic)
		checkData(m, d, &out)
		return out
	}
	post := workload.RunUntilIdle(m, d, 60, 2400)
	if post.Panic != nil {
		out.Outcome = OutcomeResurrectFailure
		out.ResurrectErr = post.Panic
		out.Detail = newDetail(StageWorkload, "", post.Panic.Error(), nil, out.Panic)
		checkData(m, d, &out)
		return out
	}
	out.AckedOps = d.Acked()
	checkData(m, d, &out)
	if err := d.Verify(m); err != nil {
		out.Outcome = OutcomeDataCorruption
		out.VerifyErr = err
		out.Detail = newDetail(StageVerify, "", err.Error(), nil, out.Panic)
		return out
	}
	if out.DataErr != nil {
		out.Outcome = OutcomeDataCorruption
		out.VerifyErr = out.DataErr
		out.Detail = newDetail(StageVerify, "", out.DataErr.Error(), nil, out.Panic)
		return out
	}
	out.Outcome = OutcomeSuccess
	return out
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
