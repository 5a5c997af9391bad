package workload

import (
	"fmt"
	"strconv"
	"strings"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/sim"
)

// MySQLDriver plays the remote SQL client of Section 6: it issues inserts,
// updates and deletes against the in-memory table with a single request in
// flight, logs every acknowledged statement remotely, reconnects and
// retransmits after a microreboot, and verifies the table contents against
// the log.
type MySQLDriver struct {
	rng *sim.RNG

	// budget is how many further statements the client will issue.
	budget int
	// seq numbers statements.
	seq int
	// pending is the in-flight (sent, unacknowledged) request.
	pending string
	// pendingRetried marks a request retransmitted after a crash: its
	// effect may have been applied twice (insert duplicates).
	pendingRetried bool

	// rows is the remote log: rowid -> payload of acknowledged state.
	rows map[uint64][]byte
	// dupTolerated lists payloads whose duplicate insertion a crash
	// retry may have caused.
	dupTolerated []string

	acked int
}

// NewMySQLDriver builds the SQL workload.
func NewMySQLDriver(seed int64) *MySQLDriver {
	return &MySQLDriver{rng: sim.NewRNG(seed), rows: make(map[uint64][]byte)}
}

// Name returns the display name.
func (d *MySQLDriver) Name() string { return "MySQL" }

// Program returns the registry name.
func (d *MySQLDriver) Program() string { return apps.ProgMySQL }

// Start launches the server and connects the client.
func (d *MySQLDriver) Start(m *core.Machine) error {
	if _, err := m.Start("mysqld", apps.ProgMySQL); err != nil {
		return err
	}
	d.connect(m)
	d.sendNext(m)
	return nil
}

// connect installs the client's response handler on the wire.
func (d *MySQLDriver) connect(m *core.Machine) {
	m.Net.OnRemote(apps.MySQLPort, func(payload []byte) {
		d.onResponse(m, payload)
	})
}

// onResponse processes a server reply, "<status> <op> <seq>[ <rowid>]", and
// issues the next statement.
func (d *MySQLDriver) onResponse(m *core.Machine, resp []byte) {
	status, rest := cutField(resp)
	op, rest := cutField(rest)
	seq, rest := cutField(rest)
	if len(seq) == 0 {
		return
	}
	if !isSeq(seq, d.seq) || d.pending == "" {
		return // stale duplicate
	}
	rowidField, _ := cutField(rest)
	switch {
	case string(status) == "OK" && string(op) == "I" && len(rowidField) > 0:
		if rowid, err := strconv.ParseUint(string(rowidField), 10, 64); err == nil {
			d.rows[rowid] = []byte(d.payloadOf(d.pending))
		}
	case string(status) == "OK" && string(op) == "U":
		rowid, payload := d.updateArgs(d.pending)
		d.rows[rowid] = []byte(payload)
	case string(status) == "OK" && string(op) == "D":
		rowid, _ := d.updateArgs(d.pending)
		delete(d.rows, rowid)
	case string(status) == "ERR" && string(op) == "D" && d.pendingRetried:
		// The delete was applied before the crash; the retry found no
		// row. That is success under at-least-once delivery.
		rowid, _ := d.updateArgs(d.pending)
		delete(d.rows, rowid)
	default:
		// Unexpected error: drop the statement (the client would report
		// it to the operator). No state change.
	}
	d.pending = ""
	d.pendingRetried = false
	d.acked++
	d.sendNext(m)
}

// payloadOf extracts the payload of an insert request, "I <seq> <payload>".
func (d *MySQLDriver) payloadOf(req string) string {
	_, rest, _ := strings.Cut(req, " ")
	_, payload, _ := strings.Cut(rest, " ")
	return payload
}

// updateArgs extracts (rowid, payload) from an update or delete request,
// "<op> <seq> <rowid>[ <payload>]".
func (d *MySQLDriver) updateArgs(req string) (uint64, string) {
	_, rest, _ := strings.Cut(req, " ")
	_, rest, found := strings.Cut(rest, " ")
	if !found {
		return 0, ""
	}
	id, payload, _ := strings.Cut(rest, " ")
	rowid, _ := strconv.ParseUint(id, 10, 64)
	return rowid, payload
}

// sendNext issues the next statement if budget remains and nothing is in
// flight.
func (d *MySQLDriver) sendNext(m *core.Machine) {
	if d.pending != "" || d.budget <= 0 {
		return
	}
	d.budget--
	d.seq++
	req := d.genStatement()
	d.pending = req
	m.Net.Deliver(apps.MySQLPort, []byte(req))
}

// genStatement synthesizes the next SQL operation: mostly inserts with a
// mix of updates and deletes over acknowledged rows.
func (d *MySQLDriver) genStatement() string {
	r := d.rng.Float64()
	if len(d.rows) > 4 && r < 0.20 {
		return fmt.Sprintf("U %d %d v%d", d.seq, d.anyRow(), d.seq)
	}
	if len(d.rows) > 8 && r < 0.30 {
		return fmt.Sprintf("D %d %d", d.seq, d.anyRow())
	}
	return fmt.Sprintf("I %d r%d", d.seq, d.seq)
}

// anyRow picks a deterministic acknowledged rowid.
func (d *MySQLDriver) anyRow() uint64 {
	best := uint64(0)
	for id := range d.rows {
		if best == 0 || id < best {
			best = id
		}
	}
	return best
}

// Reattach reconnects after a microreboot and retransmits the in-flight
// statement, which the server may have applied before the crash.
func (d *MySQLDriver) Reattach(m *core.Machine) error {
	d.connect(m)
	if d.pending != "" {
		d.pendingRetried = true
		if strings.HasPrefix(d.pending, "I ") {
			d.dupTolerated = append(d.dupTolerated, d.payloadOf(d.pending))
		}
		m.Net.Deliver(apps.MySQLPort, []byte(d.pending))
	} else {
		d.sendNext(m)
	}
	return nil
}

// Pump grants the client n more statements and kicks the pipeline.
func (d *MySQLDriver) Pump(m *core.Machine, n int) {
	d.budget += n
	d.sendNext(m)
}

// Acked counts acknowledged statements.
func (d *MySQLDriver) Acked() int { return d.acked }

// Verify walks the in-memory table and compares it against the remote log.
// Tolerated deviations, all consequences of at-least-once delivery around a
// crash: the single in-flight statement may or may not have applied, and a
// retried insert may appear twice (under two rowids, same payload).
func (d *MySQLDriver) Verify(m *core.Machine) error {
	env, err := EnvFor(m, apps.ProgMySQL)
	if err != nil {
		return err
	}
	got, err := apps.MySQLSnapshot(env)
	if err != nil {
		return fmt.Errorf("MySQL: %w", err)
	}

	// Classify rows the log does not know about.
	pendingPayload := ""
	if d.pending != "" && strings.HasPrefix(d.pending, "I ") {
		pendingPayload = d.payloadOf(d.pending)
	}
	dupBudget := map[string]int{}
	for _, p := range d.dupTolerated {
		dupBudget[p]++
	}
	pendingRowid, pendingUpd := uint64(0), ""
	if d.pending != "" && (strings.HasPrefix(d.pending, "U ") || strings.HasPrefix(d.pending, "D ")) {
		pendingRowid, pendingUpd = d.updateArgs(d.pending)
	}

	for id, payload := range got {
		want, known := d.rows[id]
		if known {
			if string(payload) == string(want) {
				continue
			}
			// The in-flight update may have been applied unacked.
			if id == pendingRowid && string(payload) == pendingUpd {
				continue
			}
			return fmt.Errorf("MySQL: row %d payload %q diverged from log %q", id, payload, want)
		}
		// Unknown row: acceptable only as the unacked in-flight insert
		// or a tolerated crash-retry duplicate.
		if pendingPayload != "" && string(payload) == pendingPayload {
			pendingPayload = ""
			continue
		}
		if dupBudget[string(payload)] > 0 {
			dupBudget[string(payload)]--
			continue
		}
		return fmt.Errorf("MySQL: unexpected row %d (%q) not in remote log", id, payload)
	}
	for id, want := range d.rows {
		if _, ok := got[id]; !ok {
			// The in-flight delete may have been applied unacked.
			if id == pendingRowid && strings.HasPrefix(d.pending, "D ") {
				continue
			}
			return fmt.Errorf("MySQL: row %d (%q) missing from table", id, want)
		}
	}
	return nil
}
