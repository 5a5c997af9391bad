package core_test

import (
	"fmt"
	"log"

	_ "otherworld/internal/apps" // register the paper's applications

	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/workload"
)

// Example_microreboot shows the whole Otherworld lifecycle: boot, run a
// workload, crash, microreboot, resurrect, verify.
func Example_microreboot() {
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 192 << 20
	opts.Seed = 7
	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}

	user := workload.NewEditorDriver("vi", "vi", 11)
	if err := user.Start(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, user, 100, 5000)

	_ = m.K.InjectOops("example crash")
	out, err := m.HandleFailure()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered:", out.Result == core.ResultRecovered)
	fmt.Println("outcome:", out.Report.Procs[0].Outcome)

	_ = user.Reattach(m)
	workload.RunUntilIdle(m, user, 50, 3000)
	fmt.Println("verified:", user.Verify(m) == nil)
	// Output:
	// recovered: true
	// outcome: continued
	// verified: true
}

// Example_hotUpdate shows the Section 7 planned-microreboot application.
func Example_hotUpdate() {
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 192 << 20
	opts.Seed = 8
	opts.FastCrashBoot = true
	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Start("sh", "sh"); err != nil {
		log.Fatal(err)
	}
	out, err := m.HotUpdate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("updated:", out.Result == core.ResultRecovered)
	fmt.Println("shell survived:", len(m.K.Procs()) == 1)
	// Output:
	// updated: true
	// shell survived: true
}

// Example_crashProcedure shows registering an application-specific recovery
// function (Section 3.4).
func Example_crashProcedure() {
	kernel.RegisterCrashProc("example-recovery", func(env *kernel.Env, missing kernel.ResourceMask) (kernel.CrashAction, error) {
		if missing != 0 {
			// Save state through env file syscalls, then restart fresh.
			return kernel.ActionRestart, nil
		}
		return kernel.ActionContinue, nil
	})
	fmt.Println(kernel.LookupCrashProc("example-recovery") != nil)
	// Output:
	// true
}
