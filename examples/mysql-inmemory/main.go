// mysql-inmemory reproduces the Section 5.2 database story: a MySQL server
// keeps its tables entirely in memory (the MEMORY storage engine), a remote
// client commits transactions, the kernel crashes — and the ~75-line crash
// procedure saves every row to disk and restarts the server, losing nothing
// a client ever saw acknowledged.
//
//	go run ./examples/mysql-inmemory
package main

import (
	"fmt"
	"log"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/workload"
)

func main() {
	opts := core.DefaultOptions()
	opts.Seed = 52

	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}

	client := workload.NewMySQLDriver(13)
	if err := client.Start(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, client, 200, 10000)

	env, err := workload.EnvFor(m, apps.ProgMySQL)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := apps.MySQLSnapshot(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client committed %d statements; in-memory table holds %d rows\n",
		client.Acked(), len(rows))
	fmt.Println("(no row has ever been written to disk — this is the MEMORY engine)")

	fmt.Println("\n*** kernel panic under load ***")
	_ = m.K.InjectOops("database demo crash")
	out, err := m.HandleFailure()
	if err != nil {
		log.Fatal(err)
	}
	if out.Result != core.ResultRecovered {
		log.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	pr := out.Report.Procs[0]
	fmt.Printf("crash procedure ran (missing resources: %s) and chose to %s\n",
		pr.Missing, pr.Outcome)
	fmt.Printf("service interruption: %.0f virtual seconds\n", out.Interruption.Seconds())

	// The client reconnects and retransmits, as any database client would.
	if err := client.Reattach(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, client, 100, 8000)

	env, _ = workload.EnvFor(m, apps.ProgMySQL)
	restored, err := apps.MySQLSnapshot(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter restart the reloaded table holds %d rows; client has %d acknowledged statements\n",
		len(restored), client.Acked())
	if err := client.Verify(m); err != nil {
		log.Fatalf("verification: %v", err)
	}
	fmt.Println("every acknowledged transaction verified against the remote log: nothing was rolled back")
}
