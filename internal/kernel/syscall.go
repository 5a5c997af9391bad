package kernel

import (
	"otherworld/internal/layout"
)

// counterTraceInterval is the syscall-counter snapshot period for the
// flight recorder.
const counterTraceInterval = 64

// System call numbers, recorded in the saved context so resurrection can
// report which call was aborted.
const (
	SysNoOpen uint16 = iota + 1
	SysNoClose
	SysNoRead
	SysNoWrite
	SysNoFsync
	SysNoSeek
	SysNoMmap
	SysNoCrashProc
	SysNoTermOpen
	SysNoTermWrite
	SysNoTermRead
	SysNoSigAction
	SysNoShmGet
	SysNoPipe
	SysNoPipeWrite
	SysNoPipeRead
	SysNoSockOpen
	SysNoSockSend
	SysNoSockRecv
	SysNoExit
)

// syscall is the system-call gate. It saves the caller's context on the
// kernel stack (so a crash mid-call is recoverable by aborting the call,
// Section 3.5), performs the protected-mode page-table switch with its TLB
// flushes (Section 4), models the gate and handler code executing — where
// injected text corruption manifests — and models the kernel reading its
// stack locals, where injected stack corruption manifests.
func (k *Kernel) syscall(p *Process, no uint16, fn FuncID, body func() error) error {
	if k.panicState != nil {
		return k.panicState
	}
	p.Ctx.InSyscall = true
	p.Ctx.SyscallNo = no
	if err := k.SaveContextToStack(p); err != nil {
		return k.oopsf(OopsBadStructure, "context save on syscall entry: %v", err)
	}

	k.Perf.Syscalls++
	k.Perf.Cycles += SyscallBaseCycles
	// Periodic counter snapshots give the post-mortem ring a progress
	// baseline even when the panic path itself could not run.
	if k.Tracer != nil && k.Perf.Syscalls%counterTraceInterval == 0 {
		k.traceCounters()
	}
	if k.P.UserSpaceProtection {
		// Switch to the kernel-only page-table set: the TLB entries for
		// user pages are gone until the switch back.
		k.M.TLB.Flush()
		k.Perf.PTSwitches++
		k.Perf.Cycles += PTSwitchCycles
	}

	err := k.runGateAndBody(p, fn, body)

	if k.P.UserSpaceProtection {
		k.M.TLB.Flush()
		k.Perf.PTSwitches++
		k.Perf.Cycles += PTSwitchCycles
	}
	if k.panicState == nil {
		p.Ctx.InSyscall = false
		if serr := k.SaveContextToStack(p); serr != nil {
			return k.oopsf(OopsBadStructure, "context save on syscall exit: %v", serr)
		}
	}
	return err
}

// runGateAndBody executes the gate code, consumes the live stack window and
// runs the handler.
func (k *Kernel) runGateAndBody(p *Process, fn FuncID, body func() error) error {
	if behave := k.executeKernelFunc(FuncSyscallEntry, p); behave != BehaveBenign {
		return k.manifest(behave, "syscall-entry")
	}
	// The gate spills and reloads locals in the live stack window; a
	// corrupted int there is consumed by kernel code now.
	if _, ok := k.stackRangeIntact(p.D.KStack, kstackScratchStart, kstackLiveEnd); !ok {
		// Repair the window (the routine overwrites its locals as it
		// proceeds), then let the consumed garbage take effect.
		_ = k.fillStackPattern(p.D.KStack, kstackScratchStart, kstackLiveEnd)
		behave := k.Text.decideBehavior(k.rng.Float64())
		if behave == BehaveWildWriteSilent {
			k.wildWrite()
			behave = BehaveBenign
		}
		if behave != BehaveBenign {
			return k.manifest(behave, "stack-local")
		}
	}
	if fn != FuncSyscallEntry {
		if behave := k.executeKernelFunc(fn, p); behave != BehaveBenign {
			return k.manifest(behave, funcNames[fn])
		}
	}
	return body()
}

// Env is the user-mode execution environment handed to programs: their
// window onto the address space and the system-call interface.
type Env struct {
	K *Kernel
	P *Process
}

// PID returns the process ID.
func (e *Env) PID() uint32 { return e.P.PID }

// PC returns the program counter (step count).
func (e *Env) PC() uint64 { return e.P.Ctx.PC }

// SyscallAborted reports whether the last microreboot aborted an in-flight
// system call; the program should retry the call (Section 3.5). Reading
// clears the flag.
func (e *Env) SyscallAborted() bool {
	was := e.P.SyscallAborted
	e.P.SyscallAborted = false
	return was
}

// Resurrected reports how many microreboots this process has survived.
func (e *Env) Resurrected() int { return e.P.Resurrected }

// Read copies user memory into buf (a user-mode load).
func (e *Env) Read(va uint64, buf []byte) error { return e.K.ReadVM(e.P, va, buf) }

// Write copies buf into user memory (a user-mode store).
func (e *Env) Write(va uint64, buf []byte) error { return e.K.WriteVM(e.P, va, buf) }

// ReadU64 loads a little-endian word from user memory.
func (e *Env) ReadU64(va uint64) (uint64, error) {
	var b [8]byte
	if err := e.Read(va, b[:]); err != nil {
		return 0, err
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// WriteU64 stores a little-endian word to user memory.
func (e *Env) WriteU64(va uint64, v uint64) error {
	b := []byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
	return e.Write(va, b)
}

// Access models n user-mode accesses over a page span, for TLB traffic.
func (e *Env) Access(va uint64, pages, n int) error {
	return e.K.AccessPattern(e.P, va, pages, n)
}

// Compute charges pure computation cycles.
func (e *Env) Compute(cycles uint64) { e.K.ChargeCompute(cycles) }

// MapAnon maps an anonymous region.
func (e *Env) MapAnon(va, length uint64, prot uint8) error {
	return e.K.syscall(e.P, SysNoMmap, FuncMmap, func() error {
		return e.K.MapRegion(e.P, va, length, prot, layout.RegionAnon, 0, 0)
	})
}

// Open opens a file, returning its descriptor.
func (e *Env) Open(path string, flags uint32) (fd uint32, err error) {
	err = e.K.syscall(e.P, SysNoOpen, FuncOpen, func() error {
		fd, err = e.K.openFile(e.P, path, flags)
		return err
	})
	return fd, err
}

// Close closes a descriptor, flushing its dirty pages.
func (e *Env) Close(fd uint32) error {
	return e.K.syscall(e.P, SysNoClose, FuncOpen, func() error {
		return e.K.closeFile(e.P, fd)
	})
}

// ReadFile reads from the descriptor at its current offset.
func (e *Env) ReadFile(fd uint32, buf []byte) (n int, err error) {
	err = e.K.syscall(e.P, SysNoRead, FuncReadWrite, func() error {
		n, err = e.K.readFile(e.P, fd, buf)
		return err
	})
	return n, err
}

// WriteFile buffers a write at the descriptor's current offset.
func (e *Env) WriteFile(fd uint32, data []byte) (n int, err error) {
	err = e.K.syscall(e.P, SysNoWrite, FuncReadWrite, func() error {
		n, err = e.K.writeFile(e.P, fd, data)
		return err
	})
	return n, err
}

// Fsync flushes the descriptor's dirty cache pages to disk and issues the
// block-layer barrier: only after it returns are the bytes durable against
// the crash model's write-cache rollback. (Close flushes without a barrier,
// exactly the volatile window real drives leave open.)
func (e *Env) Fsync(fd uint32) error {
	return e.K.syscall(e.P, SysNoFsync, FuncReadWrite, func() error {
		var rec layout.FileRec
		addr, err := e.K.lookupFile(e.P, fd, &rec)
		if err != nil {
			return err
		}
		if err := e.K.flushFile(&rec, addr); err != nil {
			return err
		}
		if e.K.Disk != nil {
			e.K.Disk.Barrier()
		}
		return nil
	})
}

// Seek sets the descriptor offset.
func (e *Env) Seek(fd uint32, off uint64) error {
	return e.K.syscall(e.P, SysNoSeek, FuncReadWrite, func() error {
		return e.K.seekFile(e.P, fd, off)
	})
}

// MmapFile maps a file region at va.
func (e *Env) MmapFile(fd uint32, va, length, fileOff uint64, prot uint8) error {
	return e.K.syscall(e.P, SysNoMmap, FuncMmap, func() error {
		var rec layout.FileRec
		addr, err := e.K.lookupFile(e.P, fd, &rec)
		if err != nil {
			return err
		}
		rec.Mapped = true
		if err := e.K.writeFileRec(addr, &rec); err != nil {
			return err
		}
		return e.K.MapRegion(e.P, va, length, prot, layout.RegionFileMap, addr, fileOff)
	})
}

// RegisterCrashProcedure registers the process's crash procedure by name.
func (e *Env) RegisterCrashProcedure(name string) error {
	return e.K.syscall(e.P, SysNoCrashProc, FuncSyscallEntry, func() error {
		return e.K.RegisterCrashProcedure(e.P, name)
	})
}

// TermOpen attaches terminal index to the process.
func (e *Env) TermOpen(index uint32) error {
	return e.K.syscall(e.P, SysNoTermOpen, FuncTTY, func() error {
		return e.K.OpenTerminal(e.P, index)
	})
}

// TermWrite renders bytes on the process's terminal.
func (e *Env) TermWrite(data []byte) error {
	return e.K.syscall(e.P, SysNoTermWrite, FuncTTY, func() error {
		return e.K.termWrite(e.P, data)
	})
}

// TermRead pulls one keystroke; ok is false when nothing is queued.
func (e *Env) TermRead() (b byte, ok bool, err error) {
	err = e.K.syscall(e.P, SysNoTermRead, FuncTTY, func() error {
		var terr error
		b, ok, terr = e.K.termRead(e.P)
		return terr
	})
	return b, ok, err
}

// SigAction installs a signal handler.
func (e *Env) SigAction(sig int, handler uint32) error {
	return e.K.syscall(e.P, SysNoSigAction, FuncSyscallEntry, func() error {
		return e.K.SigAction(e.P, sig, handler)
	})
}

// ShmGet allocates and attaches a shared-memory segment at va.
func (e *Env) ShmGet(key, size, va uint64) error {
	return e.K.syscall(e.P, SysNoShmGet, FuncIPC, func() error {
		return e.K.ShmGet(e.P, key, size, va)
	})
}

// PipeOpen creates a pipe endpoint.
func (e *Env) PipeOpen(id, peer uint32) error {
	return e.K.syscall(e.P, SysNoPipe, FuncIPC, func() error {
		return e.K.PipeOpen(e.P, id, peer)
	})
}

// PipeWrite appends to a pipe.
func (e *Env) PipeWrite(id uint32, data []byte) (n int, err error) {
	err = e.K.syscall(e.P, SysNoPipeWrite, FuncIPC, func() error {
		n, err = e.K.PipeWrite(e.P, id, data)
		return err
	})
	return n, err
}

// PipeRead drains a pipe.
func (e *Env) PipeRead(id uint32, buf []byte) (n int, err error) {
	err = e.K.syscall(e.P, SysNoPipeRead, FuncIPC, func() error {
		n, err = e.K.PipeRead(e.P, id, buf)
		return err
	})
	return n, err
}

// SockOpen binds a socket on a local port.
func (e *Env) SockOpen(id uint32, proto layout.SocketProto, port uint16) error {
	return e.K.syscall(e.P, SysNoSockOpen, FuncIPC, func() error {
		return e.K.SockOpen(e.P, id, proto, port)
	})
}

// SockSend pushes a payload to the socket's remote peer.
func (e *Env) SockSend(id uint32, payload []byte) error {
	return e.K.syscall(e.P, SysNoSockSend, FuncIPC, func() error {
		return e.K.SockSend(e.P, id, payload)
	})
}

// SockRecv pulls the next inbound message (ErrWouldBlock when idle).
func (e *Env) SockRecv(id uint32) (payload []byte, err error) {
	err = e.K.syscall(e.P, SysNoSockRecv, FuncIPC, func() error {
		payload, err = e.K.SockRecv(e.P, id)
		return err
	})
	return payload, err
}

// Exit terminates the process.
func (e *Env) Exit(code int) error {
	return e.K.syscall(e.P, SysNoExit, FuncClone, func() error {
		return e.K.Exit(e.P, code)
	})
}
