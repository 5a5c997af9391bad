// apache-sessions reproduces the Section 5.3 web-application story: PHP
// session data (shopping carts, credentials) lives in shared memory for
// speed; the ~115-line crash procedure in the PHP module saves the session
// hash table across a kernel crash, so no user loses a cart — and no PHP
// application needed changing.
//
//	go run ./examples/apache-sessions
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
	opts.HW.MemoryBytes = 192 << 20
	opts.Seed = 53

	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}

	clients := workload.NewApacheDriver(17)
	if err := clients.Start(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, clients, 250, 12000)

	env, err := workload.EnvFor(m, apps.ProgApache)
	if err != nil {
		log.Fatal(err)
	}
	sessions, err := apps.ApacheSnapshot(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d HTTP requests served; %d live sessions in shared memory\n",
		clients.Acked(), len(sessions))

	fmt.Println("\n*** kernel panic while serving ***")
	_ = m.K.InjectOops("web server demo crash")
	out, err := m.HandleFailure()
	if err != nil {
		log.Fatal(err)
	}
	if out.Result != core.ResultRecovered {
		log.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	fmt.Printf("PHP crash procedure saved the session table and Apache %s\n",
		out.Report.Procs[0].Outcome)

	if err := clients.Reattach(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, clients, 150, 9000)

	env, _ = workload.EnvFor(m, apps.ProgApache)
	restored, err := apps.ApacheSnapshot(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter restart: %d sessions restored; clients continued their browsing\n", len(restored))
	if err := clients.Verify(m); err != nil {
		log.Fatalf("verification: %v", err)
	}
	fmt.Println("every session verified against the request log: no shopping cart was lost")
}
