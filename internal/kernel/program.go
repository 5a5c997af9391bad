package kernel

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrYield is returned by a program step that has nothing to do right now
// (no keystrokes queued, no requests pending). The scheduler treats it as a
// voluntary sleep, not an error.
var ErrYield = errors.New("kernel: yield")

// Program is an application executable. Implementations must keep ALL
// persistent state inside the process's simulated address space (via Env
// reads/writes) or in files: after a microreboot the crash kernel rebuilds
// the process purely from its memory image plus saved context and binds a
// fresh Program value from the registry, whose next Step continues where
// the dead process stopped — any state an implementation kept in Go fields
// is gone, exactly like CPU-register and cache state in a real
// resurrection.
type Program interface {
	// Boot lays out the address space and initial state of a freshly
	// started process.
	Boot(env *Env) error
	// Step executes one quantum of the program.
	Step(env *Env) error
}

// ResourceMask reports resource types the crash kernel could not resurrect,
// passed to crash procedures as a bitmask (Section 3.4).
type ResourceMask uint32

// Resource bits.
const (
	ResSockets ResourceMask = 1 << iota
	ResPipes
	ResTerminal
	ResShm
	ResFiles
	ResMemory
)

// String lists the set bits.
func (m ResourceMask) String() string {
	if m == 0 {
		return "none"
	}
	names := []struct {
		bit  ResourceMask
		name string
	}{
		{ResSockets, "sockets"}, {ResPipes, "pipes"}, {ResTerminal, "terminal"},
		{ResShm, "shm"}, {ResFiles, "files"}, {ResMemory, "memory"},
	}
	out := ""
	for _, n := range names {
		if m&n.bit != 0 {
			if out != "" {
				out += "+"
			}
			out += n.name
		}
	}
	return out
}

// CrashAction is a crash procedure's verdict (Table 1).
type CrashAction int

// Crash procedure verdicts.
const (
	// ActionContinue resumes the process from the interruption point.
	ActionContinue CrashAction = iota
	// ActionRestart means the procedure saved state to persistent storage
	// and wants the application started fresh.
	ActionRestart
	// ActionGiveUp abandons the process.
	ActionGiveUp
)

func (a CrashAction) String() string {
	switch a {
	case ActionContinue:
		return "continue"
	case ActionRestart:
		return "restart"
	case ActionGiveUp:
		return "give-up"
	}
	return fmt.Sprintf("CrashAction(%d)", int(a))
}

// CrashProcedure is the user-level recovery function the crash kernel calls
// after resurrecting a process (Section 3.4). It runs with the process's
// restored memory available through env and learns which resource types
// could not be restored from missing.
type CrashProcedure func(env *Env, missing ResourceMask) (CrashAction, error)

var (
	registryMu   sync.RWMutex
	programs     = make(map[string]func() Program)
	crashProcs   = make(map[string]CrashProcedure)
	startupCosts = make(map[string]time.Duration)
)

// RegisterStartupCost records how long a program takes to start (service
// init, data load), charged to the virtual clock on every fresh start —
// including crash-procedure-driven restarts, which is why Apache and MySQL
// interruption times in Table 6 approach a full service restart.
func RegisterStartupCost(name string, d time.Duration) {
	registryMu.Lock()
	defer registryMu.Unlock()
	startupCosts[name] = d
}

// StartupCost returns the registered start time for a program (0 if none).
func StartupCost(name string) time.Duration {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return startupCosts[name]
}

// RegisterProgram adds an executable to the program registry (the
// simulation's file-system-visible binaries). Registering a duplicate name
// panics, as with database/sql drivers.
func RegisterProgram(name string, factory func() Program) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := programs[name]; dup {
		//owvet:allow gopanic: init-time registration bug in the simulator itself, not a modeled kernel failure
		panic(fmt.Sprintf("kernel: program %q registered twice", name))
	}
	programs[name] = factory
}

// LookupProgram returns the factory for a registered program, or nil.
func LookupProgram(name string) func() Program {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return programs[name]
}

// Programs lists registered program names, sorted.
func Programs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(programs))
	for n := range programs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterCrashProc adds a named crash procedure to the registry; processes
// reference it by name through their descriptor. Duplicate registration
// replaces, so tests can install variants.
func RegisterCrashProc(name string, proc CrashProcedure) {
	registryMu.Lock()
	defer registryMu.Unlock()
	crashProcs[name] = proc
}

// LookupCrashProc resolves a registered crash procedure, or nil.
func LookupCrashProc(name string) CrashProcedure {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return crashProcs[name]
}
