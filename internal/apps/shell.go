package apps

import (
	"fmt"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// Shell is the interactive text-mode shell of Table 6's first row: the
// simplest process the interactive user cares about after a microreboot.
// It echoes keystrokes to its terminal and keeps a command history in
// memory; surviving a microreboot means the user's screen and history come
// back exactly as they were.

const (
	shHdrVA   = 0xA00000
	shHistVA  = 0xA01000
	shHistCap = 1 << 16
)

// Header word offsets.
const (
	shMagicOff = 8 * iota
	shHistLenOff
	shCmdsOff
)

const shMagic = 0x5E110001

// Shell is the program.
type Shell struct{}

// Boot maps the history buffer and opens the console.
func (s *Shell) Boot(env *kernel.Env) error {
	rw := uint8(layout.ProtRead | layout.ProtWrite)
	if err := env.MapAnon(shHdrVA, 4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(shHistVA, shHistCap, rw); err != nil {
		return err
	}
	if err := env.TermOpen(uint32(env.PID())); err != nil {
		return err
	}
	if err := env.TermWrite([]byte("$ ")); err != nil {
		return err
	}
	return env.WriteU64(shHdrVA+shMagicOff, shMagic)
}

// Step reads one keystroke, echoes it and appends it to the history; '\n'
// counts a completed command and prints a fresh prompt.
func (s *Shell) Step(env *kernel.Env) error {
	env.SyscallAborted() // the read loop simply retries

	key, ok, err := env.TermRead()
	if err != nil {
		return err
	}
	if !ok {
		return kernel.ErrYield
	}
	if err := env.TermWrite([]byte{key}); err != nil {
		return err
	}
	histLen, err := env.ReadU64(shHdrVA + shHistLenOff)
	if err != nil {
		return err
	}
	if histLen < shHistCap {
		if err := env.Write(shHistVA+histLen, []byte{key}); err != nil {
			return err
		}
		histLen++
		if err := env.WriteU64(shHdrVA+shHistLenOff, histLen); err != nil {
			return err
		}
	}
	if key == '\n' {
		cmds, err := env.ReadU64(shHdrVA + shCmdsOff)
		if err != nil {
			return err
		}
		if err := env.WriteU64(shHdrVA+shCmdsOff, cmds+1); err != nil {
			return err
		}
		if err := env.TermWrite([]byte("$ ")); err != nil {
			return err
		}
	}
	env.Compute(2000)
	return nil
}

// ShellSnapshot is the externally verifiable shell state.
type ShellSnapshot struct {
	History string
	Cmds    uint64
}

// SnapshotShell reads the shell state out of the process image.
func SnapshotShell(env *kernel.Env) (*ShellSnapshot, error) {
	magic, err := env.ReadU64(shHdrVA + shMagicOff)
	if err != nil {
		return nil, err
	}
	if magic != shMagic {
		return nil, fmt.Errorf("shell state corrupted: magic %#x", magic)
	}
	n, err := env.ReadU64(shHdrVA + shHistLenOff)
	if err != nil {
		return nil, err
	}
	if n > shHistCap {
		return nil, fmt.Errorf("shell state corrupted: history length %d", n)
	}
	hist := make([]byte, n)
	if err := env.Read(shHistVA, hist); err != nil {
		return nil, err
	}
	cmds, err := env.ReadU64(shHdrVA + shCmdsOff)
	if err != nil {
		return nil, err
	}
	return &ShellSnapshot{History: string(hist), Cmds: cmds}, nil
}
