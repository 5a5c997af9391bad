package experiment

import (
	"regexp"
	"strings"

	"otherworld/internal/kernel"
	"otherworld/internal/resurrect"
	"otherworld/internal/trace"
)

// Stage names for Attribution.Stage: the coarse step of the experiment
// pipeline where a non-success outcome was decided.
const (
	// StageSetup: the experiment machine or workload failed to start.
	StageSetup = "setup"
	// StageNoFault: the injected faults never manifested (discarded runs).
	StageNoFault = "no-fault"
	// StageTransfer: control never reached the crash kernel.
	StageTransfer = "transfer"
	// StageResurrect: the crash kernel could not rebuild the process.
	StageResurrect = "resurrect"
	// StageWorkload: the application came back but failed while running.
	StageWorkload = "workload"
	// StageVerify: the application's data diverged from the remote log.
	StageVerify = "verify"
)

// Attribution is the structured, comparable key a failure aggregates under.
// It replaces the old free-text transfer-reason tallies: equal attributions
// are the same failure mode even when their raw messages differ in
// addresses or counts.
type Attribution struct {
	// Stage is the pipeline stage (Stage* constants).
	Stage string
	// Phase is the resurrection phase reached (see resurrect.Phase); ""
	// outside the resurrect stage.
	Phase string
	// PanicKind is the dead kernel's failure classification, recovered
	// from the flight-recorder ring when possible ("" if no panic).
	PanicKind string
	// Reason is the normalized failure message (addresses and large
	// numbers replaced by placeholders).
	Reason string
}

func (a Attribution) String() string {
	parts := []string{a.Stage}
	if a.Phase != "" {
		parts = append(parts, "phase="+a.Phase)
	}
	if a.PanicKind != "" {
		parts = append(parts, "panic="+a.PanicKind)
	}
	if a.Reason != "" {
		parts = append(parts, a.Reason)
	}
	return strings.Join(parts, ": ")
}

// AttributionCount is one aggregated failure mode with its tally —
// Table5Row carries a slice of these (JSON-friendly, unlike a struct-keyed
// map).
type AttributionCount struct {
	Attribution
	Count int
}

// FailureDetail is the per-experiment attribution: the aggregate key plus
// the panic context salvaged from the dead kernel's flight recorder.
type FailureDetail struct {
	Attribution
	// PanicCPU and PanicPC locate the failing thread (from the ring's
	// panic event when available).
	PanicCPU int
	PanicPC  uint64
	// InSyscall and SyscallNo say whether a system call was in flight.
	InSyscall bool
	SyscallNo uint16
	// RingEvents and RingDamaged describe the recovered ring itself.
	RingEvents  int
	RingDamaged int
	// FaultsInjected and Manifests count the ring's injection and
	// manifestation breadcrumbs.
	FaultsInjected int
	Manifests      int
}

var (
	hexAddrPat = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	bigNumPat  = regexp.MustCompile(`\b\d{3,}\b`)
)

// NormalizeReason canonicalizes a failure message for aggregation:
// addresses and large numbers vary run to run without changing the failure
// mode, so they collapse to placeholders.
func NormalizeReason(s string) string {
	s = hexAddrPat.ReplaceAllString(s, "#addr")
	s = bigNumPat.ReplaceAllString(s, "#n")
	return s
}

// newDetail builds a FailureDetail from the stage/phase/reason and whatever
// the recovered flight recorder can add. Either trace or the fallback panic
// event may be nil.
func newDetail(stage, phase, reason string, tr *trace.Parsed, pe *kernel.PanicEvent) *FailureDetail {
	d := &FailureDetail{Attribution: Attribution{
		Stage:  stage,
		Phase:  phase,
		Reason: NormalizeReason(reason),
	}}
	if tr != nil {
		d.RingEvents = len(tr.Events)
		d.RingDamaged = tr.Damaged
		d.FaultsInjected = tr.CountKind(trace.KindFaultInject)
		d.Manifests = tr.CountKind(trace.KindFaultManifest)
		if pev := tr.LastPanic(); pev != nil {
			pk, _, insc, scno := trace.UnpackPanic(pev.A, pev.B)
			d.PanicKind = kernel.PanicKind(pk).String()
			d.PanicCPU = int(pev.CPU)
			d.PanicPC = pev.PC
			d.InSyscall = insc
			d.SyscallNo = scno
		}
	}
	// The live panic event backstops a ring that was too damaged (or too
	// small) to retain its panic slot.
	if d.PanicKind == "" && pe != nil {
		d.PanicKind = pe.Kind.String()
		d.PanicCPU = pe.CPU
	}
	return d
}

// failedPhase names the resurrection phase where a process report failed,
// "" when no phase carries an error.
func failedPhase(pr resurrect.ProcReport) string {
	if ph, ok := pr.Timeline.FailedPhase(); ok {
		return ph.String()
	}
	if pr.Outcome == resurrect.OutcomeFailed && len(pr.Timeline) > 0 {
		return pr.Timeline.Last().Phase.String()
	}
	return ""
}
