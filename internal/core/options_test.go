package core

import (
	"testing"

	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/phys"
)

func TestNewMachineRejectsOversizedCrashRegion(t *testing.T) {
	opts := DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 64 << 20, NumCPUs: 1, TLBEntries: 8, WatchdogEnabled: true}
	opts.CrashRegionMB = 64 // two 64 MB slots cannot fit in 64 MB
	if _, err := NewMachine(opts); err == nil {
		t.Fatal("oversized crash region should fail")
	}
}

// TestNewMachineDefaults: zero-valued hardware and crash-slot options boot
// the DefaultOptions machine: 256 MB, two CPUs, an armed watchdog and two
// 16 MB slots.
func TestNewMachineDefaults(t *testing.T) {
	m, err := NewMachine(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.HW.Mem.Size() != 256<<20 || len(m.HW.CPUs) != 2 || !m.HW.Watchdog {
		t.Fatalf("default machine: memory %d, %d CPUs, watchdog %v; want 256 MB, 2, true",
			m.HW.Mem.Size(), len(m.HW.CPUs), m.HW.Watchdog)
	}
	if m.slots[0].Frames != 16<<20/phys.PageSize {
		t.Fatalf("default crash slot = %d frames, want 16 MB", m.slots[0].Frames)
	}
	if m.K == nil || m.K.Swap() == nil {
		t.Fatal("kernel or swap missing")
	}
}

func TestHandleFailureWithoutPanic(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.HandleFailure(); err != ErrNoFailure {
		t.Fatalf("err = %v", err)
	}
}

func TestStartUnknownProgram(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.Start("x", "not-registered"); err == nil {
		t.Fatal("unknown program should fail")
	}
}

func TestFailureOutcomeRecorded(t *testing.T) {
	m := newTestMachine(t, nil)
	_, _ = m.Start("c", "counter")
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatal(err)
	}
	if m.LastOutcome != out {
		t.Fatal("LastOutcome not recorded")
	}
	if out.Panic == nil || out.Panic.Reason != "x" {
		t.Fatalf("panic = %+v", out.Panic)
	}
}

// TestSystemDownPathLeavesMachineRecoverable: when the transfer fails, the
// machine is down until ColdReboot, after which it works again.
func TestSystemDownPathLeavesMachineRecoverable(t *testing.T) {
	// Break the transfer by disabling the watchdog and wedging the kernel.
	m := newTestMachine(t, func(o *Options) {
		o.HW.WatchdogEnabled = false
		o.Hardening.WatchdogNMI = false
	})
	_, _ = m.Start("c", "counter")
	// Wedge: a hang with no watchdog cannot transfer.
	m.K.RaiseHangForTest()
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatal(err)
	}
	if out.Result != ResultSystemDown {
		t.Fatalf("result = %v", out.Result)
	}
	if err := m.ColdReboot(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("c", "counter"); err != nil {
		t.Fatal(err)
	}
	if res := m.Run(10); res.Panic != nil {
		t.Fatalf("panic after recovery: %v", res.Panic)
	}
}

// TestKernelsRunWithMachineSettings: the cold-booted kernel, the crash
// kernel that HandleFailure morphs into the main kernel, and the kernel a
// ColdReboot boots all run with the machine's CRC, protection and hardening
// settings, each set away from its DefaultOptions value.
func TestKernelsRunWithMachineSettings(t *testing.T) {
	hard := kernel.Hardening{WatchdogNMI: true, NoTrustCurrent: true}
	m := newTestMachine(t, func(o *Options) {
		o.VerifyCRC = false
		o.UserSpaceProtection = true
		o.Hardening = hard
	})
	check := func(stage string) {
		t.Helper()
		if p := m.K.P; p.VerifyCRC || !p.UserSpaceProtection || p.Hardening != hard {
			t.Fatalf("%s: kernel runs with VerifyCRC=%v UserSpaceProtection=%v Hardening=%+v, want false, true, %+v",
				stage, p.VerifyCRC, p.UserSpaceProtection, p.Hardening, hard)
		}
	}
	check("cold boot")
	if _, err := m.Start("c", "counter"); err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	_ = m.K.InjectOops("settings")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	check("morphed crash kernel")
	if err := m.ColdReboot(); err != nil {
		t.Fatal(err)
	}
	check("cold reboot")
}
