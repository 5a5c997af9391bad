package workload

import (
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
)

func testMachine(t *testing.T, seed int64) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = seed
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

// drivers under test, constructed fresh per test.
func allDrivers(seed int64) []Driver {
	return []Driver{
		NewEditorDriver("vi", "vi", seed),
		NewEditorDriver("joe", "joe", seed+1),
		NewMySQLDriver(seed + 2),
		NewApacheDriver(seed + 3),
		NewBLCRDriver(seed + 4),
		NewVolanoDriver(seed + 5),
		NewShellDriver(seed + 6),
	}
}

// TestDriversCleanRun verifies every workload runs and verifies without any
// failure injected.
func TestDriversCleanRun(t *testing.T) {
	for _, d := range allDrivers(100) {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			m := testMachine(t, 7)
			if err := d.Start(m); err != nil {
				t.Fatalf("Start: %v", err)
			}
			res := RunUntilIdle(m, d, 200, 4000)
			if res.Panic != nil {
				t.Fatalf("unexpected panic: %v", res.Panic)
			}
			if d.Acked() == 0 {
				t.Fatal("workload made no progress")
			}
			if err := d.Verify(m); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

// TestDriversSurviveMicroreboot crashes the kernel mid-workload and checks
// each application's state against the remote log after resurrection.
//
// Volano is the deliberate negative case: it holds a socket and registers
// no crash procedure, so per Table 1 its resurrection must fail.
func TestDriversSurviveMicroreboot(t *testing.T) {
	for _, d := range allDrivers(200) {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			m := testMachine(t, 11)
			if err := d.Start(m); err != nil {
				t.Fatalf("Start: %v", err)
			}
			res := RunUntilIdle(m, d, 120, 2500)
			if res.Panic != nil {
				t.Fatalf("unexpected panic: %v", res.Panic)
			}
			ackedBefore := d.Acked()
			if ackedBefore == 0 {
				t.Fatal("no progress before crash")
			}

			if err := m.K.InjectOops("test crash"); err == nil {
				t.Fatal("InjectOops returned nil")
			}
			out, err := m.HandleFailure()
			if err != nil {
				t.Fatalf("HandleFailure: %v", err)
			}
			if out.Result != core.ResultRecovered {
				t.Fatalf("not recovered: %s", out.Transfer.Reason)
			}
			if got := len(out.Report.Procs); got != 1 {
				t.Fatalf("resurrected %d processes, want 1", got)
			}
			pr := out.Report.Procs[0]
			if d.Name() == "Volano" {
				if pr.Err == nil || pr.Missing&kernel.ResSockets == 0 {
					t.Fatalf("Volano should fail resurrection over its socket, got outcome %v missing %v", pr.Outcome, pr.Missing)
				}
				return
			}
			if pr.Err != nil {
				t.Fatalf("resurrection failed: %v (outcome %v)", pr.Err, pr.Outcome)
			}
			if err := d.Reattach(m); err != nil {
				t.Fatalf("Reattach: %v", err)
			}
			res = RunUntilIdle(m, d, 120, 2500)
			if res.Panic != nil {
				t.Fatalf("panic after resurrection: %v", res.Panic)
			}
			if d.Acked() <= ackedBefore {
				t.Fatalf("no progress after resurrection: %d -> %d", ackedBefore, d.Acked())
			}
			if err := d.Verify(m); err != nil {
				t.Fatalf("verify after resurrection: %v", err)
			}
		})
	}
}

// TestJoeUnpatchedDiesOnAbortedRead reproduces the paper's JOE anecdote:
// without the one-line read-retry fix, the editor exits when its console
// read is aborted by the microreboot.
func TestJoeUnpatchedDiesOnAbortedRead(t *testing.T) {
	m := testMachine(t, 13)
	d := NewEditorDriver("joe", "joe-unpatched", 300)
	if err := d.Start(m); err != nil {
		t.Fatalf("Start: %v", err)
	}
	RunUntilIdle(m, d, 60, 1200)
	if d.Acked() == 0 {
		t.Fatal("no progress")
	}

	// Crash while the editor sits inside its console read.
	p := FindProc(m, "joe-unpatched")
	if p == nil {
		t.Fatal("process missing")
	}
	p.Ctx.InSyscall = true
	p.Ctx.SyscallNo = kernel.SysNoTermRead
	if err := m.K.SaveContextToStack(p); err != nil {
		t.Fatalf("save context: %v", err)
	}
	if err := m.K.InjectOops("crash during console read"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != core.ResultRecovered {
		t.Fatalf("not recovered: %s", out.Transfer.Reason)
	}
	if err := d.Reattach(m); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	m.Run(50)
	if FindProc(m, "joe-unpatched") != nil {
		t.Fatal("unpatched JOE should have exited on the aborted read")
	}

	// The patched JOE survives the same situation (covered by
	// TestDriversSurviveMicroreboot, asserted again here for contrast).
}
