// Package workload drives the applications the way the paper's experiments
// do (Section 6): each driver plays the remote client or interactive user,
// logs every acknowledged operation on the "remote computer" (its shadow
// model), reattaches after a microreboot, and verifies the resurrected
// application's state against the log — the check behind Table 5's
// data-corruption column.
package workload

import (
	"bytes"
	"fmt"
	"strconv"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
)

// Driver is one application workload.
type Driver interface {
	// Name is the display name ("vi", "MySQL", ...).
	Name() string
	// Program is the registry name of the application.
	Program() string
	// Start launches the application on the machine and binds the
	// external world (console keystrokes, network clients).
	Start(m *core.Machine) error
	// Reattach re-binds the external world after a microreboot and
	// retransmits any unacknowledged request, as a real client would.
	Reattach(m *core.Machine) error
	// Pump queues up to n operations of work and kicks the request
	// pipeline if it is idle.
	Pump(m *core.Machine, n int)
	// Acked reports how many operations have been acknowledged.
	Acked() int
	// Verify compares the application's current state against the remote
	// log, tolerating only the single in-flight operation.
	Verify(m *core.Machine) error
}

// DataInvariantChecker is implemented by drivers that can audit the
// on-disk state of their application after a crash — the "data survived"
// column of the Table 5-style report. Verify checks the live process;
// CheckDataInvariants checks the platter.
type DataInvariantChecker interface {
	CheckDataInvariants(m *core.Machine) error
}

// FindProc locates the (live) process running the given program on the
// current kernel. Resurrection and restarts change PIDs, so drivers always
// re-resolve.
func FindProc(m *core.Machine, program string) *kernel.Process {
	for _, p := range m.K.Procs() {
		if p.D.Program == program {
			return p
		}
	}
	return nil
}

// EnvFor builds a user-mode access environment for the driver's process.
func EnvFor(m *core.Machine, program string) (*kernel.Env, error) {
	p := FindProc(m, program)
	if p == nil {
		return nil, fmt.Errorf("workload: no live process for %q", program)
	}
	return &kernel.Env{K: m.K, P: p}, nil
}

// RunUntilIdle pumps n operations and drives the scheduler until the
// machine goes idle, a panic occurs, or the step budget is exhausted. It
// returns the scheduler result.
func RunUntilIdle(m *core.Machine, d Driver, n, maxSteps int) kernel.RunResult {
	d.Pump(m, n)
	return m.Run(maxSteps)
}

// The remote peers parse each reply in place: a reply is a few ASCII
// fields, and a stale duplicate must cost nothing to discard.

// cutField returns the first whitespace-separated field of b, as
// strings.Fields splits an ASCII reply, and the bytes after it.
func cutField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && asciiSpace(b[i]) {
		i++
	}
	b = b[i:]
	i = 0
	for i < len(b) && !asciiSpace(b[i]) {
		i++
	}
	return b[:i], b[i:]
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// isSeq reports whether field is n in decimal, as strconv.Itoa writes it.
func isSeq(field []byte, n int) bool {
	var buf [20]byte
	return bytes.Equal(field, strconv.AppendInt(buf[:0], int64(n), 10))
}
