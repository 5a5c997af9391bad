// Quickstart: the smallest complete Otherworld program.
//
// It boots a simulated machine with a resident crash kernel, runs a tiny
// application whose state lives in its (simulated) address space, panics
// the kernel, and shows the application surviving the microreboot with its
// state intact — the paper's core claim in ~100 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// counter is the application: it increments a 64-bit counter kept at a
// fixed virtual address. All state lives in the process image — the Go
// struct holds nothing — so resurrection genuinely reconstructs it from
// the dead kernel's memory.
type counter struct{}

const counterVA = 0x100000

func (counter) Boot(env *kernel.Env) error {
	if err := env.MapAnon(counterVA, 4096, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	return env.WriteU64(counterVA, 0)
}

func (counter) Step(env *kernel.Env) error {
	v, err := env.ReadU64(counterVA)
	if err != nil {
		return err
	}
	return env.WriteU64(counterVA, v+1)
}

func init() {
	kernel.RegisterProgram("quickstart-counter", func() kernel.Program { return counter{} })
}

func main() {
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 1

	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("machine booted with a protected crash kernel resident in memory")

	p, err := m.Start("counter", "quickstart-counter")
	if err != nil {
		log.Fatal(err)
	}
	m.Run(1000)
	env := &kernel.Env{K: m.K, P: p}
	before, _ := env.ReadU64(counterVA)
	fmt.Printf("counter after 1000 steps: %d\n", before)

	// The kernel dies.
	_ = m.K.InjectOops("demo: dereferenced a poisoned pointer")
	fmt.Println("kernel panic! transferring control to the crash kernel...")

	out, err := m.HandleFailure()
	if err != nil {
		log.Fatal(err)
	}
	if out.Result != core.ResultRecovered {
		log.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	pr := out.Report.Procs[0]
	fmt.Printf("resurrected pid %d -> pid %d (%s), %d pages copied\n",
		pr.Candidate.PID, pr.NewPID, pr.Outcome, pr.PagesCopied)

	np := m.K.Lookup(pr.NewPID)
	env = &kernel.Env{K: m.K, P: np}
	after, _ := env.ReadU64(counterVA)
	fmt.Printf("counter after resurrection: %d (state preserved: %v)\n", after, after == before)

	// Execution continues where it stopped.
	m.Run(500)
	final, _ := env.ReadU64(counterVA)
	fmt.Printf("counter after 500 more steps under the new kernel: %d\n", final)
	fmt.Printf("service interruption: %.0f virtual seconds (a cold reboot would also have lost the counter)\n",
		out.Interruption.Seconds())
}
