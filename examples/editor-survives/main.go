// editor-survives reproduces the Section 5.1 interactive-application story:
// a user types into the vi editor, the kernel crashes mid-session, and
// after the microreboot the document, the undo buffer and the terminal
// screen are exactly as they were — the crash is invisible to the user.
//
//	go run ./examples/editor-survives
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
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 51

	m, err := core.NewMachine(opts)
	if err != nil {
		log.Fatal(err)
	}

	user := workload.NewEditorDriver("vi", apps.ProgVi, 7)
	if err := user.Start(m); err != nil {
		log.Fatal(err)
	}
	workload.RunUntilIdle(m, user, 300, 10000)

	env, err := workload.EnvFor(m, apps.ProgVi)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := apps.SnapshotEditor(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("typed %d keystrokes; document %d bytes, undo depth %d, %d saves\n",
		snap.Keys, len(snap.Doc), snap.UndoLen, snap.Saves)
	screen, _ := m.K.ScreenContents(m.K.Procs()[0])
	fmt.Printf("screen row 0: %q\n", string(screen[0][:40]))

	fmt.Println("\n*** kernel panic while the user is typing ***")
	_ = m.K.InjectOops("editor demo crash")
	out, err := m.HandleFailure()
	if err != nil {
		log.Fatal(err)
	}
	if out.Result != core.ResultRecovered {
		log.Fatalf("transfer failed: %s", out.Transfer.Reason)
	}
	fmt.Printf("vi resurrected (%s) without any modification or crash procedure\n",
		out.Report.Procs[0].Outcome)

	if err := user.Reattach(m); err != nil {
		log.Fatal(err)
	}
	env, _ = workload.EnvFor(m, apps.ProgVi)
	restored, err := apps.SnapshotEditor(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after resurrection: document %d bytes, undo depth %d — screen and undo intact\n",
		len(restored.Doc), restored.UndoLen)

	// The user keeps typing, oblivious.
	workload.RunUntilIdle(m, user, 200, 8000)
	if err := user.Verify(m); err != nil {
		log.Fatalf("verification: %v", err)
	}
	final, _ := apps.SnapshotEditor(env)
	fmt.Printf("user kept typing: %d keystrokes total, document %d bytes, verified against the keystroke log\n",
		final.Keys, len(final.Doc))
}
