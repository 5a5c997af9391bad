package core

import (
	"testing"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// counterProg is a minimal program keeping all state in its address space:
// a 64-bit counter at counterVA incremented once per step.
type counterProg struct{}

const counterVA = 0x40000

func (counterProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(counterVA, 4096, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	return env.WriteU64(counterVA, 0)
}

func (counterProg) Step(env *kernel.Env) error {
	v, err := env.ReadU64(counterVA)
	if err != nil {
		return err
	}
	return env.WriteU64(counterVA, v+1)
}

func init() {
	kernel.RegisterProgram("counter", func() kernel.Program { return counterProg{} })
}

func newTestMachine(t *testing.T, mutate func(*Options)) *Machine {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 42
	if mutate != nil {
		mutate(&opts)
	}
	m, err := NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func readCounter(t *testing.T, m *Machine, p *kernel.Process) uint64 {
	t.Helper()
	env := &kernel.Env{K: m.K, P: p}
	v, err := env.ReadU64(counterVA)
	if err != nil {
		t.Fatalf("read counter: %v", err)
	}
	return v
}

func TestCounterSurvivesMicroreboot(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("counter", "counter")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	res := m.Run(100)
	if res.Panic != nil {
		t.Fatalf("unexpected panic: %v", res.Panic)
	}
	before := readCounter(t, m, p)
	if before == 0 {
		t.Fatal("counter never advanced")
	}

	if err := m.K.InjectOops("test-induced failure"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("result = %v (transfer: %s)", out.Result, out.Transfer.Reason)
	}
	if len(out.Report.Procs) != 1 {
		t.Fatalf("resurrected %d processes, want 1", len(out.Report.Procs))
	}
	pr := out.Report.Procs[0]
	if pr.Outcome != 0 { // OutcomeContinued
		t.Fatalf("outcome = %v, err = %v", pr.Outcome, pr.Err)
	}

	np := m.K.Lookup(pr.NewPID)
	if np == nil {
		t.Fatal("resurrected process not found in new kernel")
	}
	after := readCounter(t, m, np)
	if after != before {
		t.Fatalf("counter after resurrection = %d, want %d", after, before)
	}

	// Execution must continue from where it stopped.
	res = m.Run(50)
	if res.Panic != nil {
		t.Fatalf("panic after resurrection: %v", res.Panic)
	}
	final := readCounter(t, m, np)
	if final <= after {
		t.Fatalf("counter did not advance after resurrection: %d -> %d", after, final)
	}
	if m.Reboots != 1 {
		t.Fatalf("Reboots = %d, want 1", m.Reboots)
	}
}

func TestBackToBackMicroreboots(t *testing.T) {
	m := newTestMachine(t, nil)
	if _, err := m.Start("counter", "counter"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var p *kernel.Process
	for i := 0; i < 3; i++ {
		m.Run(40)
		if err := m.K.InjectOops("repeat failure"); err == nil {
			t.Fatal("InjectOops returned nil")
		}
		out, err := m.HandleFailure()
		if err != nil {
			t.Fatalf("reboot %d: HandleFailure: %v", i, err)
		}
		if out.Result != ResultRecovered {
			t.Fatalf("reboot %d: %v (%s)", i, out.Result, out.Transfer.Reason)
		}
		pr := out.Report.Procs[0]
		if pr.Err != nil {
			t.Fatalf("reboot %d: resurrection error: %v", i, pr.Err)
		}
		p = m.K.Lookup(pr.NewPID)
		if p == nil {
			t.Fatalf("reboot %d: process missing", i)
		}
	}
	if m.Reboots != 3 {
		t.Fatalf("Reboots = %d, want 3", m.Reboots)
	}
	c := readCounter(t, m, p)
	if c == 0 {
		t.Fatal("counter lost across reboots")
	}
}
