// checkpoint-protect reproduces the Section 5.4 story: in-memory
// checkpointing is ~10x faster than checkpointing to disk, but a kernel
// crash normally wipes the checkpoints. Combined with Otherworld, the
// in-memory checkpoints survive the crash — fast checkpointing AND
// crash protection, with no change to the application.
//
//	go run ./examples/checkpoint-protect
package main

import (
	"fmt"
	"log"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/workload"
)

func main() {
	opts := core.DefaultOptions()
	opts.Seed = 54

	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}

	job := workload.NewBLCRDriver(19)
	if err := job.Start(m); err != nil {
		log.Fatal(err)
	}

	// Measure both checkpoint paths on the live image.
	env, err := workload.EnvFor(m, apps.ProgBLCR)
	if err != nil {
		log.Fatal(err)
	}
	memCost, diskCost, err := apps.MeasureCheckpointCosts(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointing the %d MiB image:\n", apps.BLCRDataPages*4096>>20)
	fmt.Printf("  stock BLCR (to disk):     %6.1f ms\n", float64(diskCost.Microseconds())/1000)
	fmt.Printf("  modified BLCR (to memory):%6.1f ms  (%.0fx faster)\n",
		float64(memCost.Microseconds())/1000, float64(diskCost)/float64(memCost))

	// Run the computation past a few checkpoint intervals.
	m.Run(3*apps.BLCRCheckpointEvery + 10)
	snap, err := apps.SnapshotBLCR(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncomputation at iteration %d; latest in-memory checkpoint: #%d\n",
		snap.Iter, snap.CkptSeq)

	fmt.Println("\n*** kernel panic: a traditional reboot would wipe the in-memory checkpoint ***")
	_ = m.K.InjectOops("checkpoint demo crash")
	out, err := m.HandleFailure()
	if err != nil {
		log.Fatal(err)
	}
	if out.Result != core.ResultRecovered {
		log.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	fmt.Printf("application resurrected (%s) — no crash procedure needed\n",
		out.Report.Procs[0].Outcome)

	np := m.K.Lookup(out.Report.Procs[0].NewPID)
	env2 := &kernel.Env{K: m.K, P: np}
	restored, err := apps.SnapshotBLCR(env2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-memory checkpoint #%d survived the microreboot (valid: %v)\n",
		restored.CkptSeq, restored.CkptValid)

	// Roll back to it, as a restart-from-checkpoint would.
	seq, err := apps.RestoreBLCRFromCheckpoint(env2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored application data from checkpoint #%d and resumed the computation\n", seq)
	m.Run(60)
	if err := job.Verify(m); err != nil {
		// After an explicit rollback the iteration pattern restarts from
		// the checkpoint; full verification applies to the continue path.
		fmt.Printf("(post-rollback state diverges from the live log by design: %v)\n", err)
	}
	final, _ := apps.SnapshotBLCR(env2)
	fmt.Printf("computation continued to iteration %d\n", final.Iter)
}
