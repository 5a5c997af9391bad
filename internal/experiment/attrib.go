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

// attribute builds a failure's attribution from its stage, phase and
// reason. The panic kind comes from the dead kernel's recovered ring when it
// kept its panic event, else from the live panic; either may be nil.
func attribute(stage, phase, reason string, dead *trace.Parsed, live *kernel.PanicEvent) Attribution {
	a := Attribution{Stage: stage, Phase: phase, Reason: NormalizeReason(reason)}
	if dead != nil {
		if pev := dead.LastPanic(); pev != nil {
			pk, _, _, _ := trace.UnpackPanic(pev.A, pev.B)
			a.PanicKind = kernel.PanicKind(pk).String()
		}
	}
	// The live panic event backstops a ring that was too damaged (or too
	// small) to retain its panic slot.
	if a.PanicKind == "" && live != nil {
		a.PanicKind = live.Kind.String()
	}
	return a
}

// failedPhase names the resurrection phase where a process report failed,
// "" when no phase carries an error.
func failedPhase(pr *resurrect.ProcReport) string {
	if ph, ok := pr.Timeline.FailedPhase(); ok {
		return ph.String()
	}
	if pr.Outcome == resurrect.OutcomeFailed && len(pr.Timeline) > 0 {
		return pr.Timeline.Last().Phase.String()
	}
	return ""
}
