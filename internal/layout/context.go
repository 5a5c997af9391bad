package layout

import (
	"encoding/binary"

	"otherworld/internal/phys"
)

// Context is the hardware context of a thread as saved on its kernel stack.
// On a kernel failure, every CPU receiving the non-maskable interrupt pushes
// the context of the thread it was executing onto that thread's kernel stack
// before halting (Section 3.2); the crash kernel later reads it back to
// continue the thread "similar to the way a regular context switch occurs".
//
// Deliberately, the context is *not* CRC-protected: real hardware pushes raw
// registers. A fault-injected write that lands on a saved context therefore
// goes undetected and resurrects the process with wrong register state —
// the mechanism behind the residual data-corruption cases in Table 5.
type Context struct {
	// Saved reports whether a valid context has been pushed.
	Saved bool
	// InSyscall is set when the thread was inside a system call; the
	// crash kernel then aborts the call with a retryable error rather
	// than resuming mid-kernel (Section 3.5).
	InSyscall bool
	// SyscallNo identifies the interrupted call for diagnostics.
	SyscallNo uint16
	// PC is the user program counter: the index of the next program step.
	PC uint64
	// SP is the user stack pointer.
	SP uint64
	// Regs are general-purpose registers the program may use for
	// in-flight values.
	Regs [4]uint64
}

// ctxMagic guards against reading a never-written stack; it is a plain
// sentinel, not an integrity check.
const ctxMagic uint32 = 0x43545853 // "CTXS"

// ContextSize is the encoded size of a saved context.
const ContextSize = 4 + 1 + 1 + 2 + 8 + 8 + 4*8

// EncodeContext serializes c into buf, which must be at least ContextSize
// bytes.
func EncodeContext(buf []byte, c *Context) {
	binary.LittleEndian.PutUint32(buf[0:], ctxMagic)
	buf[4] = b2u(c.Saved)
	buf[5] = b2u(c.InSyscall)
	binary.LittleEndian.PutUint16(buf[6:], c.SyscallNo)
	binary.LittleEndian.PutUint64(buf[8:], c.PC)
	binary.LittleEndian.PutUint64(buf[16:], c.SP)
	for i, r := range c.Regs {
		binary.LittleEndian.PutUint64(buf[24+8*i:], r)
	}
}

// DecodeContext parses a saved context from buf. ok is false only when the
// sentinel is absent (the stack never held a context); corrupted field
// values are returned as-is, because hardware state carries no checksums.
func DecodeContext(buf []byte) (c Context, ok bool) {
	if len(buf) < ContextSize {
		return Context{}, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != ctxMagic {
		return Context{}, false
	}
	c.Saved = buf[4] != 0
	c.InSyscall = buf[5] != 0
	c.SyscallNo = binary.LittleEndian.Uint16(buf[6:])
	c.PC = binary.LittleEndian.Uint64(buf[8:])
	c.SP = binary.LittleEndian.Uint64(buf[16:])
	for i := range c.Regs {
		c.Regs[i] = binary.LittleEndian.Uint64(buf[24+8*i:])
	}
	return c, true
}

// WriteContext stores the context at the base of the kernel stack at
// kstackAddr. Every system call saves a context twice, so over a *phys.Mem
// the write is a static call, which lets the encoding stay on the stack;
// any other accessor is handed a heap copy.
func WriteContext(m MemoryAccessor, kstackAddr uint64, c *Context) error {
	var buf [ContextSize]byte
	EncodeContext(buf[:], c)
	if pm, ok := m.(*phys.Mem); ok {
		return pm.WriteAt(kstackAddr, buf[:])
	}
	return m.WriteAt(kstackAddr, append([]byte(nil), buf[:]...))
}

// ReadContext loads the context from the kernel stack at kstackAddr. Like
// WriteContext it allocates nothing over a *phys.Mem.
func ReadContext(m Reader, kstackAddr uint64) (Context, bool, error) {
	var buf [ContextSize]byte
	var err error
	if pm, ok := m.(*phys.Mem); ok {
		err = pm.ReadAt(kstackAddr, buf[:])
	} else {
		b := make([]byte, ContextSize)
		err = m.ReadAt(kstackAddr, b)
		copy(buf[:], b)
	}
	if err != nil {
		return Context{}, false, err
	}
	c, ok := DecodeContext(buf[:])
	return c, ok, nil
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}
