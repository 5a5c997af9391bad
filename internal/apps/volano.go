package apps

import (
	"fmt"
	"strconv"
	"strings"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// Volano models the Volano chat-server benchmark used in Table 3: "a highly
// parallel and system call intensive application, the type of workload that
// should be the most sensitive to system call overhead". Each chat message
// costs one receive plus a fan-out of sends to the room's members, so the
// syscall-to-computation ratio is far higher than MySQL's or Apache's —
// which is why protected mode costs it 11.6% in the paper.

// VolanoPort is the chat server's listen port.
const VolanoPort uint16 = 5566

// volanoSockID is the listen socket identifier.
const volanoSockID = 1

// Chat room memory layout.
const (
	voHdrVA = 0x900000
	// voRoomsVA holds VolanoRooms room slots.
	voRoomsVA = 0x901000
	// VolanoRooms is the number of chat rooms.
	VolanoRooms = 20
	// voRoomSlot is one room's storage: a length word and a message ring.
	voRoomSlot = 4096
	voRoomCap  = voRoomSlot - 16
	// VolanoFanout is how many member connections each message is
	// broadcast to.
	VolanoFanout = 4
	// voWorkVA is the server's working set (JVM-style heap and
	// connection tables) for the TLB traffic model.
	voWorkVA = 0x940000
)

// Header word offsets.
const (
	voMagicOff = 8 * iota
	voMsgsOff
)

const voMagic = 0x70A1A0

// Volano workload profile (Table 3): little memory work and little compute
// per message; the syscalls dominate.
const (
	volanoAccessPages   = 72
	volanoAccessesPerOp = 500
	volanoComputePerOp  = 41000
)

// Volano is the chat-server program.
type Volano struct{}

// Boot maps the room table and binds the listen socket.
func (v *Volano) Boot(env *kernel.Env) error {
	rw := uint8(layout.ProtRead | layout.ProtWrite)
	if err := env.MapAnon(voHdrVA, 4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(voRoomsVA, VolanoRooms*voRoomSlot, rw); err != nil {
		return err
	}
	if err := env.MapAnon(voWorkVA, volanoAccessPages*4096, rw); err != nil {
		return err
	}
	if err := env.WriteU64(voHdrVA+voMagicOff, voMagic); err != nil {
		return err
	}
	return env.SockOpen(volanoSockID, layout.ProtoTCP, VolanoPort)
}

// Step serves one chat message: "M <seq> <room> <text>". The text is
// appended to the room ring and broadcast to VolanoFanout member
// connections (one send each), plus the acknowledgement to the sender.
func (v *Volano) Step(env *kernel.Env) error {
	env.SyscallAborted()

	req, err := env.SockRecv(volanoSockID)
	if err != nil {
		if err == kernel.ErrWouldBlock {
			return kernel.ErrYield
		}
		return err
	}
	if err := env.Access(voWorkVA, volanoAccessPages, volanoAccessesPerOp); err != nil {
		return err
	}
	env.Compute(volanoComputePerOp)

	fields := strings.SplitN(string(req), " ", 4)
	if len(fields) < 4 {
		return env.SockSend(volanoSockID, []byte("ERR parse"))
	}
	seq := fields[1]
	room, perr := strconv.ParseUint(fields[2], 10, 64)
	if perr != nil || room >= VolanoRooms {
		return env.SockSend(volanoSockID, []byte("ERR room"))
	}
	text := fields[3]

	base := uint64(voRoomsVA + room*voRoomSlot)
	used, err := env.ReadU64(base)
	if err != nil {
		return err
	}
	msg := []byte(text + "\n")
	if used+uint64(len(msg)) > voRoomCap {
		used = 0 // ring wrap: drop scrollback
	}
	if err := env.Write(base+16+used, msg); err != nil {
		return err
	}
	if err := env.WriteU64(base, used+uint64(len(msg))); err != nil {
		return err
	}

	// Broadcast to the room members: the syscall storm Table 3 measures.
	for i := 0; i < VolanoFanout; i++ {
		if err := env.SockSend(volanoSockID, []byte(fmt.Sprintf("B %s %d %s", seq, i, text))); err != nil {
			return err
		}
	}
	msgs, err := env.ReadU64(voHdrVA + voMsgsOff)
	if err != nil {
		return err
	}
	if err := env.WriteU64(voHdrVA+voMsgsOff, msgs+1); err != nil {
		return err
	}
	return env.SockSend(volanoSockID, []byte("OK "+seq))
}

// VolanoMessages returns the served-message counter.
func VolanoMessages(env *kernel.Env) (uint64, error) {
	magic, err := env.ReadU64(voHdrVA + voMagicOff)
	if err != nil {
		return 0, err
	}
	if magic != voMagic {
		return 0, fmt.Errorf("volano state corrupted: magic %#x", magic)
	}
	return env.ReadU64(voHdrVA + voMsgsOff)
}
