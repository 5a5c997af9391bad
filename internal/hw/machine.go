// Package hw models the hardware the kernels run on: CPUs with the
// non-maskable-interrupt halt protocol used to stop the machine at failure
// time, the interrupt descriptor table, a hardware watchdog timer, and a TLB
// whose miss accounting drives the user-space-protection overhead
// measurements (Table 3).
package hw

import (
	"fmt"

	"otherworld/internal/disk"
	"otherworld/internal/phys"
	"otherworld/internal/sim"
)

// CPU is one processor. The fields mirror the paper's Section 3.2 protocol:
// on failure, every CPU other than the failing one receives an NMI, saves
// the context of the thread it was executing onto that thread's kernel
// stack, sets a global "context saved" flag, and halts.
type CPU struct {
	// ID is the processor index.
	ID int
	// Halted is set once the CPU has stopped executing.
	Halted bool
	// HaltAcked is the global flag indicating the CPU saved its context
	// before halting.
	HaltAcked bool
	// CurrentPID is the process the CPU is executing (0 = idle).
	CurrentPID uint32
}

// Config sizes a machine.
type Config struct {
	// MemoryBytes is the installed physical memory.
	MemoryBytes int
	// NumCPUs is the processor count (the paper's test VM had two).
	NumCPUs int
	// TLBEntries sizes the translation lookaside buffer.
	TLBEntries int
	// WatchdogEnabled arms the hardware watchdog timer. The paper's
	// hardening (Section 6) uses it to convert system stalls into NMIs
	// that start the microreboot; without it a stall is fatal.
	WatchdogEnabled bool
}

// Machine bundles the hardware: physical memory, the device bus, processors,
// the TLB and the virtual clock.
type Machine struct {
	Mem   *phys.Mem
	Bus   *disk.Bus
	Clock *sim.Clock
	CPUs  []*CPU
	TLB   *TLB
	// Devices is the probe-able hardware complement.
	Devices []Device
	// Watchdog reports whether the hardware watchdog timer is armed.
	Watchdog bool
}

// NewMachine powers on a machine with the given configuration.
func NewMachine(cfg Config) *Machine {
	if cfg.NumCPUs < 1 {
		cfg.NumCPUs = 1
	}
	if cfg.TLBEntries < 1 {
		cfg.TLBEntries = 64
	}
	m := &Machine{
		Mem:      phys.NewMem(cfg.MemoryBytes),
		Bus:      disk.NewBus(),
		Clock:    sim.NewClock(),
		TLB:      NewTLB(cfg.TLBEntries),
		Devices:  DefaultDevices(),
		Watchdog: cfg.WatchdogEnabled,
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		m.CPUs = append(m.CPUs, &CPU{ID: i})
	}
	return m
}

// ResetCPUs clears halt state on all processors, as happens when the crash
// kernel reinitializes the machine.
func (m *Machine) ResetCPUs() {
	for _, c := range m.CPUs {
		c.Halted = false
		c.HaltAcked = false
		c.CurrentPID = 0
	}
}

// HaltHandler is invoked on each CPU that receives the halt NMI. It must
// save the context of the thread the CPU was executing and return true on
// success; returning false models a CPU that failed to acknowledge (for
// example because its kernel stack pointer was corrupted), which stalls the
// transfer of control.
type HaltHandler func(cpu *CPU) bool

// BroadcastHaltNMI delivers non-maskable interrupts to every CPU except the
// failing one and waits for the global saved-context flags (Section 3.2).
// It returns true only if every other CPU acknowledged; the failing CPU is
// the caller and halts itself afterwards.
func (m *Machine) BroadcastHaltNMI(failingCPU int, handler HaltHandler) bool {
	all := true
	for _, c := range m.CPUs {
		if c.ID == failingCPU || c.Halted {
			continue
		}
		c.Halted = true
		if handler != nil && handler(c) {
			c.HaltAcked = true
		} else {
			all = false
		}
	}
	if failingCPU >= 0 && failingCPU < len(m.CPUs) {
		m.CPUs[failingCPU].Halted = true
		m.CPUs[failingCPU].HaltAcked = true
	}
	return all
}

// String describes the machine for logs.
func (m *Machine) String() string {
	return fmt.Sprintf("machine{%d MiB, %d CPUs, watchdog=%v}",
		m.Mem.Size()>>20, len(m.CPUs), m.Watchdog)
}
