package workload

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/sim"
)

// ApacheDriver plays the web clients of Section 5.3: a population of user
// sessions issuing session-state reads and writes, one request in flight,
// with the acknowledged state logged remotely and verified after crashes.
type ApacheDriver struct {
	rng *sim.RNG

	budget         int
	seq            int
	pending        string
	pendingRetried bool

	// sessions is the remote log of acknowledged session values.
	sessions map[uint64][]byte
	acked    int
	// getMismatches counts GET responses that contradicted the log.
	getMismatches int
}

// NewApacheDriver builds the HTTP session workload.
func NewApacheDriver(seed int64) *ApacheDriver {
	return &ApacheDriver{rng: sim.NewRNG(seed), sessions: make(map[uint64][]byte)}
}

// Name returns the display name.
func (d *ApacheDriver) Name() string { return "Apache/PHP" }

// Program returns the registry name.
func (d *ApacheDriver) Program() string { return apps.ProgApache }

// Start launches the server and connects the clients.
func (d *ApacheDriver) Start(m *core.Machine) error {
	if _, err := m.Start("apache", apps.ProgApache); err != nil {
		return err
	}
	d.connect(m)
	d.sendNext(m)
	return nil
}

func (d *ApacheDriver) connect(m *core.Machine) {
	m.Net.OnRemote(apps.ApachePort, func(payload []byte) {
		d.onResponse(m, payload)
	})
}

// onResponse processes a reply, "<status> <seq>[ <data>]", and issues the
// next request.
func (d *ApacheDriver) onResponse(m *core.Machine, resp []byte) {
	status, rest, _ := bytes.Cut(resp, []byte(" "))
	seq, got, _ := bytes.Cut(rest, []byte(" "))
	if rest == nil || d.pending == "" {
		return
	}
	if !isSeq(seq, d.seq) {
		return // stale duplicate
	}
	if string(status) == "OK" {
		op, id, val := d.pendingSession()
		switch op {
		case "S":
			d.sessions[id] = []byte(val)
		case "G":
			want, known := d.sessions[id]
			// A retried GET may race its own crash; only score
			// clean-run reads.
			if known && !d.pendingRetried && !bytes.Equal(got, want) {
				d.getMismatches++
			}
		}
	}
	d.pending = ""
	d.pendingRetried = false
	d.acked++
	d.sendNext(m)
}

// pendingSession splits the in-flight request, "<op> <seq> <sess>[ <data>]",
// into its operation, session and data.
func (d *ApacheDriver) pendingSession() (op string, sess uint64, data string) {
	op, rest, _ := strings.Cut(d.pending, " ")
	_, rest, _ = strings.Cut(rest, " ")
	id, data, _ := strings.Cut(rest, " ")
	sess, _ = strconv.ParseUint(id, 10, 64)
	return op, sess, data
}

func (d *ApacheDriver) sendNext(m *core.Machine) {
	if d.pending != "" || d.budget <= 0 {
		return
	}
	d.budget--
	d.seq++
	sess := uint64(1 + d.rng.Intn(40))
	var req string
	if len(d.sessions) > 0 && d.rng.Float64() < 0.35 {
		req = fmt.Sprintf("G %d %d", d.seq, sess)
	} else {
		req = fmt.Sprintf("S %d %d cart%d", d.seq, sess, d.seq)
	}
	d.pending = req
	m.Net.Deliver(apps.ApachePort, []byte(req))
}

// Reattach reconnects after a microreboot and retransmits the in-flight
// request.
func (d *ApacheDriver) Reattach(m *core.Machine) error {
	d.connect(m)
	if d.pending != "" {
		d.pendingRetried = true
		m.Net.Deliver(apps.ApachePort, []byte(d.pending))
	} else {
		d.sendNext(m)
	}
	return nil
}

// Pump grants the clients n more requests and kicks the pipeline.
func (d *ApacheDriver) Pump(m *core.Machine, n int) {
	d.budget += n
	d.sendNext(m)
}

// Acked counts acknowledged requests.
func (d *ApacheDriver) Acked() int { return d.acked }

// Verify compares the session store against the remote log, excluding the
// session named by the single in-flight store (its value is legitimately
// old, new, or — for a brand-new session — absent).
func (d *ApacheDriver) Verify(m *core.Machine) error {
	env, err := EnvFor(m, apps.ProgApache)
	if err != nil {
		return err
	}
	got, err := apps.ApacheSnapshot(env)
	if err != nil {
		return fmt.Errorf("Apache/PHP: %w", err)
	}
	pendingSess := uint64(0)
	pendingVal := ""
	if op, sess, val := d.pendingSession(); op == "S" {
		pendingSess, pendingVal = sess, val
	}
	for id, want := range d.sessions {
		gotVal, ok := got[id]
		if id == pendingSess {
			if !ok || string(gotVal) == string(want) || string(gotVal) == pendingVal {
				continue
			}
			return fmt.Errorf("Apache/PHP: session %d torn: %q (log %q, in-flight %q)", id, gotVal, want, pendingVal)
		}
		if !ok {
			return fmt.Errorf("Apache/PHP: session %d (%q) missing", id, want)
		}
		if string(gotVal) != string(want) {
			return fmt.Errorf("Apache/PHP: session %d = %q diverged from log %q", id, gotVal, want)
		}
	}
	for id := range got {
		if _, known := d.sessions[id]; !known && id != pendingSess {
			return fmt.Errorf("Apache/PHP: unexpected session %d", id)
		}
	}
	if d.getMismatches > 0 {
		return fmt.Errorf("Apache/PHP: %d GET responses contradicted the log", d.getMismatches)
	}
	return nil
}
