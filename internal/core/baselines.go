package core

import (
	"fmt"
	"time"

	"otherworld/internal/dump"
	"otherworld/internal/phys"
)

// This file implements the recovery baselines Otherworld is compared
// against, plus the Section 7 hot-update application of the mechanism.

// HotUpdate performs a *planned* kernel microreboot on a healthy system —
// the Section 7 future-work application: "Otherworld may also be used for
// hot updates of an operating system running mission critical software
// that cannot afford restarts", and for fast system rejuvenation. The
// running kernel hands control to the (fresh) crash kernel, every process
// is resurrected, and the machine continues under the new kernel.
func (m *Machine) HotUpdate() (*FailureOutcome, error) {
	if m.K.Panicked() != nil {
		return nil, fmt.Errorf("core: kernel already failed; use HandleFailure")
	}
	// A planned update enters the transfer path through a clean, explicit
	// trap rather than a fault; on a healthy kernel the transfer cannot
	// hit corrupted state.
	_ = m.K.InjectOops("planned kernel update (hot update)")
	return m.HandleFailure()
}

// KDumpOutcome reports the KDump-baseline recovery: a memory dump is
// captured for post-mortem debugging and the machine cold-reboots. All
// volatile application state is lost — the paper's point of departure:
// "KDump's new kernel is used only to create a physical memory dump ...
// there is no attempt to recover applications."
type KDumpOutcome struct {
	// Transfer reports the main→capture-kernel control transfer (the
	// same hazard set as Otherworld's).
	Transfer FailureResult
	// DumpPath and DumpBytes describe the captured image.
	DumpPath  string
	DumpBytes int64
	// Interruption is the virtual time until the machine serves again
	// (capture + full reboot + service start happens on top).
	Interruption time.Duration
}

// HandleFailureKDump is the KDump baseline: transfer to the capture kernel,
// write every in-use physical frame to the dump file, then cold-reboot.
// Compare with HandleFailure, which resurrects instead of dumping.
func (m *Machine) HandleFailureKDump(dumpPath string) (*KDumpOutcome, error) {
	if m.K.Panicked() == nil {
		return nil, ErrNoFailure
	}
	started := m.HW.Clock.Now()
	out := &KDumpOutcome{DumpPath: dumpPath}

	tr := m.K.AttemptTransfer()
	if !tr.OK {
		// Same failure mode as Otherworld: the stock path reboots with
		// no dump at all.
		out.Transfer = ResultSystemDown
		if err := m.ColdReboot(); err != nil {
			return nil, err
		}
		out.Interruption = m.HW.Clock.Since(started)
		return out, nil
	}
	out.Transfer = ResultRecovered

	// The capture kernel walks physical memory and writes every in-use
	// frame, sparse-format, to the dump device.
	var rec []byte
	var off int64
	for f := 0; f < m.HW.Mem.NumFrames(); f++ {
		if m.HW.Mem.Kind(f) == phys.FrameFree {
			continue
		}
		var err error
		if rec, err = dump.AppendFrame(rec[:0], m.HW.Mem, f); err != nil {
			return nil, err
		}
		if _, err := m.FS.WriteAt(dumpPath, off, rec, true); err != nil {
			return nil, err
		}
		off += int64(len(rec))
	}
	out.DumpBytes = off
	m.HW.Clock.Advance(m.cost.DiskWriteCost(off))

	// KDump's capture kernel then reboots the system; everything volatile
	// is gone.
	if err := m.ColdReboot(); err != nil {
		return nil, err
	}
	out.Interruption = m.HW.Clock.Since(started)
	return out, nil
}
