package workload

import (
	"bytes"
	"fmt"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/sim"
)

// VolanoDriver plays the Volano benchmark's chat clients: a stream of room
// messages with the fan-out broadcasts counted. It exists mainly for the
// Table 3 protection-overhead measurement (a syscall-intensive workload).
type VolanoDriver struct {
	rng *sim.RNG

	budget     int
	seq        int
	pending    string
	acked      int
	broadcasts int
}

// NewVolanoDriver builds the chat workload.
func NewVolanoDriver(seed int64) *VolanoDriver {
	return &VolanoDriver{rng: sim.NewRNG(seed)}
}

// Name returns the display name.
func (d *VolanoDriver) Name() string { return "Volano" }

// Program returns the registry name.
func (d *VolanoDriver) Program() string { return apps.ProgVolano }

// Start launches the chat server and connects the clients.
func (d *VolanoDriver) Start(m *core.Machine) error {
	if _, err := m.Start("volano", apps.ProgVolano); err != nil {
		return err
	}
	d.connect(m)
	d.sendNext(m)
	return nil
}

func (d *VolanoDriver) connect(m *core.Machine) {
	m.Net.OnRemote(apps.VolanoPort, func(payload []byte) {
		d.onResponse(m, payload)
	})
}

// onResponse counts a broadcast, "B ...", or takes an acknowledgement,
// "OK <seq>", and issues the next message.
func (d *VolanoDriver) onResponse(m *core.Machine, resp []byte) {
	switch {
	case bytes.HasPrefix(resp, []byte("B ")):
		d.broadcasts++
	case bytes.HasPrefix(resp, []byte("OK ")):
		if isSeq(resp[len("OK "):], d.seq) && d.pending != "" {
			d.pending = ""
			d.acked++
			d.sendNext(m)
		}
	}
}

func (d *VolanoDriver) sendNext(m *core.Machine) {
	if d.pending != "" || d.budget <= 0 {
		return
	}
	d.budget--
	d.seq++
	room := d.rng.Intn(apps.VolanoRooms)
	req := fmt.Sprintf("M %d %d hello%d", d.seq, room, d.seq)
	d.pending = req
	m.Net.Deliver(apps.VolanoPort, []byte(req))
}

// Reattach reconnects and retransmits the in-flight message.
func (d *VolanoDriver) Reattach(m *core.Machine) error {
	d.connect(m)
	if d.pending != "" {
		m.Net.Deliver(apps.VolanoPort, []byte(d.pending))
	} else {
		d.sendNext(m)
	}
	return nil
}

// Pump grants the clients n more messages and kicks the pipeline.
func (d *VolanoDriver) Pump(m *core.Machine, n int) {
	d.budget += n
	d.sendNext(m)
}

// Acked counts acknowledged messages.
func (d *VolanoDriver) Acked() int { return d.acked }

// Verify checks the served-message counter is plausible and the fan-out
// held (VolanoFanout broadcasts per acknowledged message, modulo the one
// in-flight message).
func (d *VolanoDriver) Verify(m *core.Machine) error {
	env, err := EnvFor(m, apps.ProgVolano)
	if err != nil {
		return err
	}
	msgs, err := apps.VolanoMessages(env)
	if err != nil {
		return fmt.Errorf("Volano: %w", err)
	}
	if int(msgs) < d.acked {
		return fmt.Errorf("Volano: served %d < acked %d", msgs, d.acked)
	}
	if d.broadcasts < d.acked*apps.VolanoFanout {
		return fmt.Errorf("Volano: %d broadcasts for %d acked messages", d.broadcasts, d.acked)
	}
	return nil
}
