package workload

import (
	"strings"
	"testing"

	"otherworld/internal/apps"
	"otherworld/internal/core"
)

// walMachine builds a test machine with the block-layer crash model enabled.
func walMachine(t *testing.T, seed int64) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.DiskCrash.Enabled = true
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

// TestWALCleanRun: both WAL variants serve transactions, verify, and leave a
// platter that satisfies every recovery invariant when no crash happens.
func TestWALCleanRun(t *testing.T) {
	for _, buggy := range []bool{false, true} {
		d := NewWALDriver(31, buggy)
		t.Run(d.Name(), func(t *testing.T) {
			m := walMachine(t, 5)
			if err := d.Start(m); err != nil {
				t.Fatalf("Start: %v", err)
			}
			res := RunUntilIdle(m, d, 20, 8000)
			if res.Panic != nil {
				t.Fatalf("unexpected panic: %v", res.Panic)
			}
			if d.Acked() == 0 {
				t.Fatal("workload made no progress")
			}
			if err := d.Verify(m); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if err := d.CheckDataInvariants(m); err != nil {
				t.Fatalf("clean run broke a recovery invariant: %v", err)
			}
			data, err := m.FS.ReadFile(apps.WALPath)
			if err != nil {
				t.Fatalf("no log on platter: %v", err)
			}
			scan := apps.ParseWAL(data)
			if got := len(scan.Applied()); got != d.Acked() {
				t.Fatalf("platter holds %d committed txns, driver acked %d", got, d.Acked())
			}
		})
	}
}

// TestWALSurvivesMicroreboot: the store's crash procedure restarts it from
// the log; resurrection flushes the dead kernel's dirty pages first, so no
// acknowledged transaction is lost.
func TestWALSurvivesMicroreboot(t *testing.T) {
	for _, buggy := range []bool{false, true} {
		d := NewWALDriver(47, buggy)
		t.Run(d.Name(), func(t *testing.T) {
			m := walMachine(t, 13)
			if err := d.Start(m); err != nil {
				t.Fatalf("Start: %v", err)
			}
			res := RunUntilIdle(m, d, 10, 8000)
			if res.Panic != nil {
				t.Fatalf("unexpected panic: %v", res.Panic)
			}
			if d.Acked() == 0 {
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
			if err := d.Reattach(m); err != nil {
				t.Fatalf("Reattach: %v", err)
			}
			res = RunUntilIdle(m, d, 10, 8000)
			if res.Panic != nil {
				t.Fatalf("post-recovery panic: %v", res.Panic)
			}
			if err := d.Verify(m); err != nil {
				t.Fatalf("verify after microreboot: %v", err)
			}
			if err := d.CheckDataInvariants(m); err != nil {
				t.Fatalf("microreboot broke a recovery invariant: %v", err)
			}
		})
	}
}

// walPhaseNames renders a crash point for test names. The phase word names
// the syscall the store executes NEXT, so crashing at phase p is crashing
// on the boundary just before p (and just after p-1).
var walPhaseNames = map[uint64]string{
	apps.WALPhaseIdle:       "idle",
	apps.WALPhaseRec1:       "before-rec1",
	apps.WALPhaseRec2:       "before-rec2",
	apps.WALPhaseRec3:       "before-rec3",
	apps.WALPhaseSyncRecs:   "before-rec-fsync",
	apps.WALPhaseCommit:     "before-commit",
	apps.WALPhaseSyncCommit: "before-commit-fsync",
	apps.WALPhaseAck:        "before-ack",
}

// runToPhase steps the machine until the store's phase word reads target
// (having made baseline progress first), then returns. The phase word
// advances exactly once per program Step, so every write/fsync boundary is
// reachable.
func runToPhase(t *testing.T, m *core.Machine, d *WALDriver, target uint64) bool {
	t.Helper()
	d.Pump(m, 4)
	for steps := 0; steps < 60000; steps++ {
		res := m.Run(1)
		if res.Panic != nil {
			t.Fatalf("panic while seeking phase %d: %v", target, res.Panic)
		}
		env, err := EnvFor(m, d.Program())
		if err != nil {
			t.Fatalf("store process vanished: %v", err)
		}
		phase, err := apps.WALPhase(env)
		if err != nil {
			t.Fatalf("phase read: %v", err)
		}
		if phase == target && (target != apps.WALPhaseIdle || d.Acked() > 0) {
			return true
		}
		if d.Acked() >= 4 && res.Idle {
			return false // budget drained without hitting the phase
		}
	}
	t.Fatalf("phase %d never reached", target)
	return false
}

// walCrashPoint crashes the kernel the moment the store sits at the given
// phase boundary, lets the disk take its crash consequences with every
// dirty page orphaned (the cold-reboot path — the worst case for the log),
// restarts the store from the platter, and returns the invariant verdict.
func walCrashPoint(t *testing.T, seed int64, buggy bool, phase uint64) error {
	t.Helper()
	m := walMachine(t, seed)
	d := NewWALDriver(seed+900, buggy)
	if err := d.Start(m); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if !runToPhase(t, m, d, phase) {
		t.Skipf("phase %s not reachable in this protocol variant", walPhaseNames[phase])
	}
	// Arm every crash class and crash exactly here.
	m.DiskModel().Arm(true, true, true)
	if err := m.K.InjectOops("sweep crash"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	if _, err := m.CrashDiskForReboot(); err != nil {
		t.Fatalf("CrashDiskForReboot: %v", err)
	}
	if err := m.ColdReboot(); err != nil {
		t.Fatalf("ColdReboot: %v", err)
	}
	if err := d.Reattach(m); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	res := RunUntilIdle(m, d, 4, 8000)
	if res.Panic != nil {
		t.Fatalf("post-reboot panic: %v", res.Panic)
	}
	if err := d.Verify(m); err != nil {
		t.Fatalf("restarted store unhealthy: %v", err)
	}
	return d.CheckDataInvariants(m)
}

// TestWALCrashPointSweep is the satellite acceptance test: a table-driven
// sweep over every write/fsync boundary of both protocol variants (14 crash
// points). The fixed WAL must satisfy every recovery invariant at every
// point and every seed; the buggy WAL must be caught violating
// committed-implies-complete at its exposure window (crash after the COMMIT
// append, before its fsync), deterministically for the pinned seeds.
func TestWALCrashPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point sweep in -short mode")
	}
	fixedPhases := []uint64{
		apps.WALPhaseIdle, apps.WALPhaseRec1, apps.WALPhaseRec2, apps.WALPhaseRec3,
		apps.WALPhaseSyncRecs, apps.WALPhaseCommit, apps.WALPhaseSyncCommit, apps.WALPhaseAck,
	}
	buggyPhases := []uint64{
		apps.WALPhaseIdle, apps.WALPhaseRec1, apps.WALPhaseRec2, apps.WALPhaseRec3,
		apps.WALPhaseCommit, apps.WALPhaseSyncCommit, apps.WALPhaseAck,
	}
	seeds := []int64{101, 202, 303}

	crashPoints := 0
	for _, phase := range fixedPhases {
		phase := phase
		crashPoints++
		t.Run("fixed/"+walPhaseNames[phase], func(t *testing.T) {
			for _, seed := range seeds {
				if err := walCrashPoint(t, seed, false, phase); err != nil {
					t.Errorf("seed %d: fixed WAL violated an invariant: %v", seed, err)
				}
			}
		})
	}
	buggyCaught := false
	for _, phase := range buggyPhases {
		phase := phase
		crashPoints++
		t.Run("buggy/"+walPhaseNames[phase], func(t *testing.T) {
			for _, seed := range seeds {
				err := walCrashPoint(t, seed, true, phase)
				if err == nil {
					continue // this seed's flush order happened to be safe
				}
				if phase != apps.WALPhaseSyncCommit {
					t.Errorf("seed %d: violation outside the exposure window (phase %s): %v",
						seed, walPhaseNames[phase], err)
					continue
				}
				if !strings.Contains(err.Error(), "incomplete") {
					t.Errorf("seed %d: wrong violation class: %v", seed, err)
				}
				buggyCaught = true
			}
		})
	}
	if crashPoints < 12 {
		t.Fatalf("sweep covered %d crash points, want >= 12", crashPoints)
	}
	if !buggyCaught {
		t.Error("no seed caught the buggy WAL's commit-before-durable bug; widen the seed set")
	}
}
