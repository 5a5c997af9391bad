// hot-update demonstrates the Section 7 application of Otherworld beyond
// crash recovery: a *planned* kernel microreboot — a hot kernel update or
// system rejuvenation — on a healthy machine running a mission-critical
// in-memory database. The database keeps serving after the update with all
// of its volatile state, and with the Section 7 fast-boot optimizations the
// interruption shrinks substantially.
//
//	go run ./examples/hot-update
package main

import (
	"fmt"
	"log"

	"otherworld/internal/core"
	"otherworld/internal/workload"
)

func run(fastBoot bool) {
	opts := core.DefaultOptions()
	opts.Seed = 61
	opts.FastCrashBoot = fastBoot

	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}
	client := workload.NewMySQLDriver(23)
	if err := client.Start(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, client, 150, 8000)
	acked := client.Acked()

	kernelGen := m.K.Globals.BootCount
	out, err := m.HotUpdate()
	if err != nil {
		log.Fatal(err)
	}
	if out.Result != core.ResultRecovered {
		log.Fatalf("hot update failed: %s", out.Transfer.Reason)
	}
	if err := client.Reattach(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, client, 100, 6000)
	if err := client.Verify(m); err != nil {
		log.Fatalf("verification after update: %v", err)
	}
	fmt.Printf("  kernel generation %d -> %d; %d -> %d statements; interruption %.0fs (fast boot: %v)\n",
		kernelGen, m.K.Globals.BootCount, acked, client.Acked(), out.Interruption.Seconds(), fastBoot)
}

func main() {
	fmt.Println("hot kernel update under a live in-memory database (paper Section 7):")
	fmt.Println("\nstock crash-kernel initialization:")
	run(false)
	fmt.Println("\nwith the Section 7 initialization optimizations:")
	run(true)
	fmt.Println("\nno transaction was lost in either case; the update is invisible to clients")
	fmt.Println("beyond the pause (the paper: \"provided that service interruption time ...")
	fmt.Println("can be improved, this feature can be also used for fast system rejuvenation\")")
}
