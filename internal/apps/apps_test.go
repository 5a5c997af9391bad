package apps

import (
	"strings"
	"testing"
	"time"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
)

func newMachine(t *testing.T, seed int64) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 192 << 20
	opts.Seed = seed
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func envOf(t *testing.T, m *core.Machine, program string) *kernel.Env {
	t.Helper()
	for _, p := range m.K.Procs() {
		if p.D.Program == program {
			return &kernel.Env{K: m.K, P: p}
		}
	}
	t.Fatalf("no process for %q", program)
	return nil
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	want := map[string]int{"vi": 0, "JOE": 1, "MySQL": 75, "Apache": 115, "BLCR": 0}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if want[r.App] != r.ModifiedLines {
			t.Fatalf("%s modified lines = %d, want %d", r.App, r.ModifiedLines, want[r.App])
		}
		needsCP := r.App == "MySQL" || r.App == "Apache"
		if r.CrashProcRequired != needsCP {
			t.Fatalf("%s crash proc required = %v", r.App, r.CrashProcRequired)
		}
		if needsCP && kernel.LookupCrashProc(r.CrashProcName) == nil {
			t.Fatalf("%s crash procedure %q not registered", r.App, r.CrashProcName)
		}
		if kernel.LookupProgram(r.Program) == nil {
			t.Fatalf("%s program %q not registered", r.App, r.Program)
		}
	}
}

func feedKeys(m *core.Machine, term uint32, keys string) {
	i := 0
	m.Consoles.AttachInput(term, func() (byte, bool) {
		if i >= len(keys) {
			return 0, false
		}
		b := keys[i]
		i++
		return b, true
	})
}

func TestEditorTypingAndUndo(t *testing.T) {
	m := newMachine(t, 1)
	p, err := m.Start("vi", ProgVi)
	if err != nil {
		t.Fatal(err)
	}
	feedKeys(m, p.PID, "abc"+string(KeyUndo)+"d"+string(KeyBackspace))
	m.Run(200)
	snap, err := SnapshotEditor(envOf(t, m, ProgVi))
	if err != nil {
		t.Fatal(err)
	}
	// abc, undo removes c -> ab, type d -> abd, backspace -> ab.
	if snap.Doc != "ab" {
		t.Fatalf("doc = %q", snap.Doc)
	}
	// Undo stack: +a +b (+c -c popped) +d, then delete entry for d.
	if snap.UndoLen != 4 {
		t.Fatalf("undo len = %d", snap.UndoLen)
	}
	if snap.Keys != 6 {
		t.Fatalf("keys = %d", snap.Keys)
	}
}

func TestEditorUndoRestoresDeleted(t *testing.T) {
	m := newMachine(t, 2)
	p, _ := m.Start("vi", ProgVi)
	feedKeys(m, p.PID, "xy"+string(KeyBackspace)+string(KeyUndo))
	m.Run(200)
	snap, err := SnapshotEditor(envOf(t, m, ProgVi))
	if err != nil {
		t.Fatal(err)
	}
	// Backspace removed y; undo restores it.
	if snap.Doc != "xy" {
		t.Fatalf("doc = %q", snap.Doc)
	}
}

func TestEditorSaveWritesFile(t *testing.T) {
	m := newMachine(t, 3)
	p, _ := m.Start("vi", ProgVi)
	feedKeys(m, p.PID, "hello"+string(KeySave))
	m.Run(200)
	data, err := m.FS.ReadFile("/home/user/vi.txt")
	if err != nil {
		t.Fatal(err)
	}
	// Length-prefixed image: 8-byte length then the document.
	if len(data) < 13 || string(data[8:13]) != "hello" {
		t.Fatalf("saved image = %q", data)
	}
	snap, _ := SnapshotEditor(envOf(t, m, ProgVi))
	if snap.Saves != 1 {
		t.Fatalf("saves = %d", snap.Saves)
	}
}

func TestJoeKeepsSecondWindow(t *testing.T) {
	m := newMachine(t, 4)
	p, _ := m.Start("joe", ProgJoe)
	feedKeys(m, p.PID, "windowed")
	m.Run(100)
	snap, err := SnapshotEditor(envOf(t, m, ProgJoe))
	if err != nil {
		t.Fatal(err)
	}
	if snap.WinLen == 0 {
		t.Fatal("JOE second window empty")
	}
}

func mysqlExec(t *testing.T, m *core.Machine, req string) string {
	t.Helper()
	var resp string
	m.Net.OnRemote(MySQLPort, func(p []byte) { resp = string(p) })
	m.Net.Deliver(MySQLPort, []byte(req))
	m.Run(50)
	return resp
}

func TestMySQLInsertUpdateDelete(t *testing.T) {
	m := newMachine(t, 5)
	if _, err := m.Start("mysqld", ProgMySQL); err != nil {
		t.Fatal(err)
	}
	if resp := mysqlExec(t, m, "I 1 alpha"); resp != "OK I 1 1" {
		t.Fatalf("insert: %q", resp)
	}
	if resp := mysqlExec(t, m, "I 2 beta"); resp != "OK I 2 2" {
		t.Fatalf("insert 2: %q", resp)
	}
	if resp := mysqlExec(t, m, "U 3 1 gamma"); resp != "OK U 3" {
		t.Fatalf("update: %q", resp)
	}
	if resp := mysqlExec(t, m, "D 4 2"); resp != "OK D 4" {
		t.Fatalf("delete: %q", resp)
	}
	if resp := mysqlExec(t, m, "D 5 99"); !strings.Contains(resp, "norow") {
		t.Fatalf("missing row: %q", resp)
	}
	rows, err := MySQLSnapshot(envOf(t, m, ProgMySQL))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[1]) != "gamma" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMySQLCrashProcedureSavesAndRestarts(t *testing.T) {
	m := newMachine(t, 6)
	if _, err := m.Start("mysqld", ProgMySQL); err != nil {
		t.Fatal(err)
	}
	mysqlExec(t, m, "I 1 one")
	mysqlExec(t, m, "I 2 two")
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != core.ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	pr := out.Report.Procs[0]
	if pr.Outcome.String() != "restarted" {
		t.Fatalf("outcome = %v (%v)", pr.Outcome, pr.Err)
	}
	// The restarted server reloaded the saved rows.
	rows, err := MySQLSnapshot(envOf(t, m, ProgMySQL))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || string(rows[1]) != "one" || string(rows[2]) != "two" {
		t.Fatalf("rows after restart = %v", rows)
	}
	// New inserts continue from the right rowid.
	if resp := mysqlExec(t, m, "I 9 three"); resp != "OK I 9 3" {
		t.Fatalf("post-restart insert: %q", resp)
	}
}

func apacheExec(t *testing.T, m *core.Machine, req string) string {
	t.Helper()
	var resp string
	m.Net.OnRemote(ApachePort, func(p []byte) { resp = string(p) })
	m.Net.Deliver(ApachePort, []byte(req))
	m.Run(50)
	return resp
}

func TestApacheSessions(t *testing.T) {
	m := newMachine(t, 7)
	if _, err := m.Start("apache", ProgApache); err != nil {
		t.Fatal(err)
	}
	if resp := apacheExec(t, m, "S 1 10 cart=3"); resp != "OK 1" {
		t.Fatalf("set: %q", resp)
	}
	if resp := apacheExec(t, m, "G 2 10"); resp != "OK 2 cart=3" {
		t.Fatalf("get: %q", resp)
	}
	if resp := apacheExec(t, m, "G 3 11"); resp != "OK 3 -" {
		t.Fatalf("missing session: %q", resp)
	}
	if resp := apacheExec(t, m, "S 4 10 cart=5"); resp != "OK 4" {
		t.Fatalf("update: %q", resp)
	}
	sessions, err := ApacheSnapshot(envOf(t, m, ProgApache))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || string(sessions[10]) != "cart=5" {
		t.Fatalf("sessions = %v", sessions)
	}
}

func TestApacheCrashProcedurePreservesSessions(t *testing.T) {
	m := newMachine(t, 8)
	if _, err := m.Start("apache", ProgApache); err != nil {
		t.Fatal(err)
	}
	apacheExec(t, m, "S 1 21 user=alice")
	apacheExec(t, m, "S 2 22 user=bob")
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != core.ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	sessions, err := ApacheSnapshot(envOf(t, m, ProgApache))
	if err != nil {
		t.Fatal(err)
	}
	if string(sessions[21]) != "user=alice" || string(sessions[22]) != "user=bob" {
		t.Fatalf("sessions after restart = %v", sessions)
	}
}

func TestBLCRCheckpointsPeriodically(t *testing.T) {
	m := newMachine(t, 9)
	if _, err := m.Start("blcr", ProgBLCR); err != nil {
		t.Fatal(err)
	}
	m.Run(BLCRCheckpointEvery + 10)
	snap, err := SnapshotBLCR(envOf(t, m, ProgBLCR))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Iter < BLCRCheckpointEvery {
		t.Fatalf("iter = %d", snap.Iter)
	}
	if snap.CkptSeq == 0 || !snap.CkptValid {
		t.Fatalf("checkpoint seq=%d valid=%v", snap.CkptSeq, snap.CkptValid)
	}
}

// TestBLCRCheckpointCostsVirtualTime prices the periodic checkpointing
// that Otherworld makes unnecessary (Section 2): each quantum in which BLCR
// copies its 8 MiB image into the in-memory checkpoint costs more than a
// thousand times the dearest ordinary quantum.
func TestBLCRCheckpointCostsVirtualTime(t *testing.T) {
	m := newMachine(t, 3)
	if _, err := m.Start("blcr", ProgBLCR); err != nil {
		t.Fatal(err)
	}
	env := envOf(t, m, ProgBLCR)
	var ckpts []time.Duration
	var ordinary time.Duration
	for q := 0; q <= 2*BLCRCheckpointEvery; q++ {
		before, err := SnapshotBLCR(env)
		if err != nil {
			t.Fatal(err)
		}
		start := m.HW.Clock.Now()
		if res := m.K.Run(1); res.Steps != 1 || res.Panic != nil {
			t.Fatalf("quantum %d: %+v", q, res)
		}
		dur := m.HW.Clock.Since(start)
		after, err := SnapshotBLCR(env)
		if err != nil {
			t.Fatal(err)
		}
		if after.CkptSeq != before.CkptSeq {
			ckpts = append(ckpts, dur)
		} else {
			ordinary = max(ordinary, dur)
		}
	}
	if len(ckpts) != 2 {
		t.Fatalf("%d checkpoints in %d quanta, want 2", len(ckpts), 2*BLCRCheckpointEvery+1)
	}
	for _, d := range ckpts {
		if d <= 1000*ordinary {
			t.Fatalf("checkpoint quantum %v, ordinary quanta up to %v: want over 1000x", d, ordinary)
		}
	}
}

func TestBLCRRestoreFromCheckpoint(t *testing.T) {
	m := newMachine(t, 10)
	if _, err := m.Start("blcr", ProgBLCR); err != nil {
		t.Fatal(err)
	}
	m.Run(BLCRCheckpointEvery + 5)
	env := envOf(t, m, ProgBLCR)
	seq, err := RestoreBLCRFromCheckpoint(env)
	if err != nil || seq == 0 {
		t.Fatalf("restore: seq=%d %v", seq, err)
	}
	// After rollback the data matches the checkpointed iteration: the
	// snapshot must still parse and pages hold pre-checkpoint values.
	if _, err := SnapshotBLCR(env); err != nil {
		t.Fatal(err)
	}
}

func TestVolanoFanout(t *testing.T) {
	m := newMachine(t, 11)
	if _, err := m.Start("volano", ProgVolano); err != nil {
		t.Fatal(err)
	}
	var got []string
	m.Net.OnRemote(VolanoPort, func(p []byte) { got = append(got, string(p)) })
	m.Net.Deliver(VolanoPort, []byte("M 1 3 hello"))
	m.Run(50)
	// Expect VolanoFanout broadcasts plus the ack.
	if len(got) != VolanoFanout+1 {
		t.Fatalf("responses = %v", got)
	}
	if got[len(got)-1] != "OK 1" {
		t.Fatalf("ack = %q", got[len(got)-1])
	}
	msgs, err := VolanoMessages(envOf(t, m, ProgVolano))
	if err != nil || msgs != 1 {
		t.Fatalf("messages = %d %v", msgs, err)
	}
}

func TestShellHistoryAndPrompt(t *testing.T) {
	m := newMachine(t, 12)
	p, err := m.Start("sh", ProgShell)
	if err != nil {
		t.Fatal(err)
	}
	feedKeys(m, p.PID, "ls\npwd\n")
	m.Run(100)
	snap, err := SnapshotShell(envOf(t, m, ProgShell))
	if err != nil {
		t.Fatal(err)
	}
	if snap.History != "ls\npwd\n" {
		t.Fatalf("history = %q", snap.History)
	}
	if snap.Cmds != 2 {
		t.Fatalf("cmds = %d", snap.Cmds)
	}
}
