package experiment

import (
	"fmt"
	"strings"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/workload"
)

// RecoveryMode is one of the worlds compared in the paper's introduction
// and related work: the status quo (full reboot), KDump (dump + reboot),
// and Otherworld.
type RecoveryMode int

// Recovery modes.
const (
	ModeReboot RecoveryMode = iota
	ModeKDump
	ModeOtherworld
)

func (m RecoveryMode) String() string {
	switch m {
	case ModeReboot:
		return "full reboot"
	case ModeKDump:
		return "KDump"
	case ModeOtherworld:
		return "Otherworld"
	}
	return fmt.Sprintf("RecoveryMode(%d)", int(m))
}

// CompareRow is one recovery mode's outcome on the same crash.
type CompareRow struct {
	Mode RecoveryMode
	// StatePreserved reports whether the application's volatile state
	// survived (verified against the remote log for Otherworld).
	StatePreserved bool
	// DumpBytes is the post-mortem image size (KDump only).
	DumpBytes int64
	// Interruption is the virtual time until the machine is back.
	Interruption time.Duration
}

// CompareRecoveryModes subjects the same application/crash to all three
// recovery modes and reports what each preserves and costs.
func CompareRecoveryModes(app string, seed int64) ([]CompareRow, error) {
	rows := make([]CompareRow, 0, 3)
	for _, mode := range []RecoveryMode{ModeReboot, ModeKDump, ModeOtherworld} {
		opts := core.DefaultOptions()
		opts.Seed = seed
		m, d, err := startApp(opts, app, seed+1)
		if err != nil {
			return nil, err
		}
		workload.RunUntilIdle(m, d, 100, 5000)
		if err := m.K.InjectOops("comparison crash"); err == nil {
			return nil, fmt.Errorf("no panic")
		}
		row := CompareRow{Mode: mode}
		failedAt := m.HW.Clock.Now()
		switch mode {
		case ModeReboot:
			if err := m.ColdReboot(); err != nil {
				return nil, err
			}
			row.Interruption = m.HW.Clock.Now() - failedAt
		case ModeKDump:
			out, err := m.HandleFailureKDump("/var/crash/vmcore")
			if err != nil {
				return nil, err
			}
			row.DumpBytes = out.DumpBytes
			row.Interruption = out.Interruption
		case ModeOtherworld:
			out, err := m.HandleFailure()
			if err != nil {
				return nil, err
			}
			if out.Result == core.ResultRecovered {
				if err := d.Reattach(m); err == nil {
					workload.RunUntilIdle(m, d, 40, 2500)
					row.StatePreserved = d.Verify(m) == nil
				}
			}
			row.Interruption = out.Interruption
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderComparison formats the three-world comparison.
func RenderComparison(app string, rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s after an identical kernel crash:\n", app)
	fmt.Fprintf(&b, "%-12s %16s %14s %14s\n", "Recovery", "State preserved", "Dump size", "Interruption")
	for _, r := range rows {
		dump := "-"
		if r.DumpBytes > 0 {
			dump = fmt.Sprintf("%d MB", r.DumpBytes>>20)
		}
		fmt.Fprintf(&b, "%-12s %16v %14s %13.0fs\n", r.Mode, r.StatePreserved, dump, r.Interruption.Seconds())
	}
	return b.String()
}
