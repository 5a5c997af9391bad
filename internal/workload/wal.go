package workload

import (
	"fmt"
	"strconv"
	"strings"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/fs"
	"otherworld/internal/sim"
)

// WALDriver plays the client of the WAL KV store and — unlike the other
// drivers, whose applications keep state in memory — audits the platter
// itself. It logs every acknowledged transaction id remotely and after each
// crash checks the recovery invariants of a write-ahead log directly against
// the on-disk image:
//
//  1. committed-implies-complete: every valid COMMIT on the platter has all
//     of its transaction's data records.
//  2. no-phantom-commits: the platter never holds more committed
//     transactions than the client ever asked for.
//  3. prefix durability: every acknowledged transaction is durably
//     committed and complete.
//
// The fixed protocol upholds all three under any schedule of the block-layer
// crash model; the buggy (commit-before-durable) protocol violates the first
// whenever the post-crash orphan flush persists a COMMIT page without all of
// its record pages.
type WALDriver struct {
	rng   *sim.RNG
	buggy bool

	budget int
	seq    int
	// pending is the in-flight request; pendingSeq its sequence number.
	pending    string
	pendingSeq int

	// ackedTxns is the remote log: transaction ids the server acknowledged.
	ackedTxns map[uint64]bool
	// dupBudget counts crash retransmissions: each may have committed a
	// second (unacknowledged) transaction for the same request.
	dupBudget int

	acked int
}

// NewWALDriver builds the WAL workload; buggy selects the
// commit-before-durable server variant.
func NewWALDriver(seed int64, buggy bool) *WALDriver {
	return &WALDriver{rng: sim.NewRNG(seed), buggy: buggy, ackedTxns: make(map[uint64]bool)}
}

// Name returns the display name.
func (d *WALDriver) Name() string {
	if d.buggy {
		return "WAL-bug"
	}
	return "WAL"
}

// Program returns the registry name.
func (d *WALDriver) Program() string {
	if d.buggy {
		return apps.ProgWALBug
	}
	return apps.ProgWAL
}

// Start launches the store and connects the client.
func (d *WALDriver) Start(m *core.Machine) error {
	if _, err := m.Start("walkv", d.Program()); err != nil {
		return err
	}
	d.connect(m)
	d.sendNext(m)
	return nil
}

// connect installs the client's response handler on the wire.
func (d *WALDriver) connect(m *core.Machine) {
	m.Net.OnRemote(apps.WALPort, func(payload []byte) {
		d.onResponse(m, payload)
	})
}

// onResponse records an acknowledged transaction, from a reply
// "OK P <seq> <txn>", and issues the next one.
func (d *WALDriver) onResponse(m *core.Machine, resp []byte) {
	status, rest := cutField(resp)
	op, rest := cutField(rest)
	seq, rest := cutField(rest)
	txnField, _ := cutField(rest)
	if len(txnField) == 0 || string(status) != "OK" || string(op) != "P" {
		return
	}
	if !isSeq(seq, d.pendingSeq) || d.pending == "" {
		return // stale duplicate of an already-acknowledged request
	}
	txn, err := strconv.ParseUint(string(txnField), 10, 64)
	if err != nil {
		return
	}
	d.ackedTxns[txn] = true
	d.pending = ""
	d.acked++
	d.sendNext(m)
}

// sendNext issues the next transaction if budget remains and nothing is in
// flight.
func (d *WALDriver) sendNext(m *core.Machine) {
	if d.pending != "" || d.budget <= 0 {
		return
	}
	d.budget--
	d.seq++
	req := fmt.Sprintf("P %d p%d-%d", d.seq, d.seq, d.rng.Intn(1<<16))
	d.pending = req
	d.pendingSeq = d.seq
	m.Net.Deliver(apps.WALPort, []byte(req))
}

// Reattach re-binds the wire after a microreboot — or restarts the store
// from its log after a cold reboot killed it — and retransmits the in-flight
// request, which the server may have committed before the crash.
func (d *WALDriver) Reattach(m *core.Machine) error {
	if FindProc(m, d.Program()) == nil {
		// Cold reboot: the process is gone; restart is recovery from disk.
		if _, err := m.Start("walkv", d.Program()); err != nil {
			return err
		}
	}
	d.connect(m)
	if d.pending != "" {
		// The lost request may already be durably committed: the retry can
		// commit it a second time under a fresh transaction id.
		d.dupBudget++
		m.Net.Deliver(apps.WALPort, []byte(d.pending))
	} else {
		d.sendNext(m)
	}
	return nil
}

// Pump grants the client n more transactions and kicks the pipeline.
func (d *WALDriver) Pump(m *core.Machine, n int) {
	d.budget += n
	d.sendNext(m)
}

// Acked counts acknowledged transactions.
func (d *WALDriver) Acked() int { return d.acked }

// Verify checks the resurrected process's header page is intact; the store's
// real state lives on disk and is audited by CheckDataInvariants.
func (d *WALDriver) Verify(m *core.Machine) error {
	env, err := EnvFor(m, d.Program())
	if err != nil {
		return err
	}
	if err := apps.WALHeaderMagicOK(env); err != nil {
		return fmt.Errorf("%s: %w", d.Name(), err)
	}
	return nil
}

// CheckDataInvariants reads the log image off the platter and checks the
// three recovery invariants against the remote log of acknowledged
// transactions. It implements DataInvariantChecker.
func (d *WALDriver) CheckDataInvariants(m *core.Machine) error {
	scan := scanPlatterLog(m.FS)
	var violations []string

	// 1. committed-implies-complete.
	for txn := range scan.Commits {
		if !scan.Complete(txn) {
			violations = append(violations, fmt.Sprintf(
				"committed txn %d incomplete: %d/%d records on platter",
				txn, len(scan.Records[txn]), apps.WALRecsPerTxn))
		}
	}

	// 2. no-phantom-commits: at most one unacknowledged committed txn (the
	// in-flight request) plus one per crash retransmission.
	unacked := 0
	for txn := range scan.Commits {
		if !d.ackedTxns[txn] {
			unacked++
		}
	}
	if allowed := 1 + d.dupBudget; unacked > allowed {
		violations = append(violations, fmt.Sprintf(
			"%d committed txns never requested by the client (allowed %d)",
			unacked, allowed))
	}

	// 3. prefix durability: every acknowledged txn durably complete.
	for txn := range d.ackedTxns {
		if !scan.Commits[txn] {
			violations = append(violations, fmt.Sprintf(
				"acked txn %d has no COMMIT on the platter", txn))
		} else if !scan.Complete(txn) {
			violations = append(violations, fmt.Sprintf(
				"acked txn %d committed but incomplete on the platter", txn))
		}
	}

	if len(violations) > 0 {
		return fmt.Errorf("%s: data invariant violations: %s",
			d.Name(), strings.Join(violations, "; "))
	}
	return nil
}

// scanPlatterLog scans the log on the platter one slot at a time through a
// single buffer, so an audit never holds more than one slot of the log. A missing log scans as empty: only
// a problem if anything was acked.
func scanPlatterLog(f *fs.FlatFS) apps.WALScan {
	var scan apps.WALScan
	var slot [apps.WALRecordSize]byte
	for off := int64(0); ; off += apps.WALRecordSize {
		n, err := f.ReadAt(apps.WALPath, off, slot[:])
		if err != nil {
			n = 0 // no log on disk yet
		}
		if n < len(slot) {
			scan.Close(n)
			return scan
		}
		scan.Add(slot[:])
	}
}
