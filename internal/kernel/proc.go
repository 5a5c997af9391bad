package kernel

import (
	"fmt"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// Record slot sizes. Process and file records contain strings fixed at
// creation, but some string fields are set later (a crash-procedure name is
// registered after creation), so their records live in fixed-size slots with
// headroom and are re-sealed in place on every update.
const (
	procSlotSize = 512
	fileSlotSize = 512
	// maxNameLen bounds process, program and crash-procedure names so a
	// descriptor always fits its slot (TestRecordSlotsFitWorstCase).
	maxNameLen = 64
)

// Kernel-stack layout within the single KStackSize frame:
//
//	[0, ContextSize)          saved hardware context (Section 3.2)
//	[ContextSize, +8)         NMI-critical word: the interrupt-frame slot the
//	                          halt NMI handler needs; corruption here breaks
//	                          the CPU-coordination step of the transfer.
//	[512, 4096)               scratch: live locals and spill slots. The
//	                          syscall gate consumes the live window at
//	                          [512, 640) — a corrupted int there is "read"
//	                          by kernel code and manifests a failure.
const (
	kstackNMIStart     = layout.ContextSize
	kstackNMIEnd       = layout.ContextSize + 8
	kstackScratchStart = 512
	kstackLiveEnd      = 640
)

// Process is the kernel's runtime view of one process. The authoritative
// state is the record set in simulated physical memory that p.Addr anchors;
// the Go fields are a write-through cache the main kernel uses for speed.
type Process struct {
	PID uint32
	// Addr is the physical address of the layout.Proc record.
	Addr uint64
	// D caches the descriptor; every mutation is written through.
	D layout.Proc
	// Ctx is the live register state; it is pushed to the kernel stack on
	// syscall entry and when the halt NMI arrives.
	Ctx layout.Context
	// Prog is the running program.
	Prog Program
	// SyscallAborted is set by resurrection when the process was inside a
	// system call at failure time: the call was aborted with a retryable
	// error (Section 3.5) and the program sees it on its next step.
	SyscallAborted bool
	// Resurrected counts how many microreboots the process has survived.
	Resurrected int
	// Exited reports the process has terminated.
	Exited   bool
	ExitCode int

	// fdNext is the next file descriptor number to hand out.
	fdNext uint32
}

// Procs returns the live processes in creation order.
func (k *Kernel) Procs() []*Process {
	out := make([]*Process, 0, len(k.procOrder))
	for _, pid := range k.procOrder {
		if p, ok := k.procs[pid]; ok && !p.Exited {
			out = append(out, p)
		}
	}
	return out
}

// Lookup returns the process with the given PID, or nil.
func (k *Kernel) Lookup(pid uint32) *Process { return k.procs[pid] }

// patternByte is the pristine filler for kernel stacks, distinct from the
// text pattern so the two corruption classes stay distinguishable in dumps.
func (k *Kernel) patternByte(addr uint64) byte {
	x := addr*0xD1342543DE82EF95 + uint64(k.P.Seed) + 0x5bf03635
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return byte(x)
}

// stackBuffer returns n bytes of the kernel's stack scratch buffer, which
// fillStackPattern and stackRangeIntact share; it grows when n exceeds its
// capacity. The bytes are stale; callers overwrite them.
func (k *Kernel) stackBuffer(n int) []byte {
	if cap(k.stackBuf) < n {
		k.stackBuf = make([]byte, n)
	}
	return k.stackBuf[:n]
}

// fillStackPattern writes the pristine pattern over a kernel-stack range.
func (k *Kernel) fillStackPattern(kstack uint64, from, to int) error {
	buf := k.stackBuffer(to - from)
	for i := range buf {
		buf[i] = k.patternByte(kstack + uint64(from+i))
	}
	return k.M.Mem.WriteAt(kstack+uint64(from), buf)
}

// stackRangeIntact compares a kernel-stack range against the pristine
// pattern, reporting the first corrupted offset.
func (k *Kernel) stackRangeIntact(kstack uint64, from, to int) (int, bool) {
	buf := k.stackBuffer(to - from)
	if err := k.M.Mem.ReadAt(kstack+uint64(from), buf); err != nil {
		return from, false
	}
	for i, b := range buf {
		if b != k.patternByte(kstack+uint64(from+i)) {
			return from + i, false
		}
	}
	return 0, true
}

// CreateProcess builds a new process running the named registered program.
// It is the simulation's fork+exec: a kernel stack and page directory are
// allocated, the descriptor record is written and linked into the process
// list, and the program's Boot hook lays out the address space.
func (k *Kernel) CreateProcess(name, program string) (*Process, error) {
	if k.panicState != nil {
		return nil, fmt.Errorf("kernel: panicked: %s", k.panicState.Reason)
	}
	if len(name) > maxNameLen || len(program) > maxNameLen {
		return nil, fmt.Errorf("kernel: process/program name too long")
	}
	factory := LookupProgram(program)
	if factory == nil {
		return nil, fmt.Errorf("kernel: no program registered as %q", program)
	}

	kstackFrame, err := k.Alloc.Alloc(phys.FrameKernelStack)
	if err != nil {
		return nil, err
	}
	kstack := phys.FrameAddr(kstackFrame)
	if err := k.fillStackPattern(kstack, kstackNMIStart, phys.PageSize); err != nil {
		return nil, err
	}

	dirFrame, err := k.Alloc.Alloc(phys.FramePageTable)
	if err != nil {
		return nil, err
	}

	addr, err := k.Heap.Alloc(procSlotSize)
	if err != nil {
		return nil, err
	}

	pid := k.Globals.NextPID
	k.Globals.NextPID++

	p := &Process{
		PID:  pid,
		Addr: addr,
		D: layout.Proc{
			PID:     pid,
			State:   layout.ProcRunnable,
			Name:    name,
			Program: program,
			PageDir: phys.FrameAddr(dirFrame),
			KStack:  kstack,
			Next:    k.Globals.ProcListHead,
		},
		fdNext: 3, // 0-2 notionally reserved for std streams
	}
	// fork() leaves an initial return frame on the new kernel stack, so a
	// process is resurrectable from birth even before its first quantum.
	p.Ctx.Saved = true
	if err := layout.WriteContext(k.M.Mem, kstack, &p.Ctx); err != nil {
		return nil, err
	}
	if err := k.writeProc(p); err != nil {
		return nil, err
	}

	// Link at the head of the kernel process list.
	k.Globals.ProcListHead = addr
	if err := k.syncGlobals(); err != nil {
		return nil, err
	}
	k.indexPut(p)

	k.procs[pid] = p
	k.procOrder = append(k.procOrder, pid)

	p.Prog = factory()
	env := &Env{K: k, P: p}
	if err := p.Prog.Boot(env); err != nil {
		return nil, fmt.Errorf("kernel: boot program %q: %w", program, err)
	}
	k.M.Clock.Advance(StartupCost(program))
	k.logf("created pid %d (%s)", pid, name)
	return p, nil
}

// writeProc re-seals the descriptor record in its slot.
func (k *Kernel) writeProc(p *Process) error {
	return k.writeSlot(p.Addr, procSlotSize, layout.TypeProc, p.D.EncodePayload())
}

// writeSlot seals a record into a fixed-size slot, enforcing the headroom.
func (k *Kernel) writeSlot(addr uint64, slot int, t layout.Type, payload []byte) error {
	if layout.RecordSize(len(payload)) > slot {
		return fmt.Errorf("kernel: %s record (%d bytes) exceeds %d-byte slot", t, layout.RecordSize(len(payload)), slot)
	}
	return k.M.Mem.WriteAt(addr, layout.Seal(t, 0, payload))
}

// readProcRecord fetches the descriptor back out of memory, validating it.
// The main kernel re-reads records on critical paths so injected corruption
// affects it the way it would affect Linux.
func (k *Kernel) readProcRecord(addr uint64) (*layout.Proc, error) {
	return layout.ReadProc(k.M.Mem, addr, k.P.VerifyCRC)
}

// RegisterCrashProcedure records the named crash procedure in the process
// descriptor (Section 3.1: "the address of this procedure is stored in the
// process descriptor"). The name must be registered in the crash-procedure
// registry before resurrection occurs.
func (k *Kernel) RegisterCrashProcedure(p *Process, crashProc string) error {
	if len(crashProc) > maxNameLen {
		return fmt.Errorf("kernel: crash procedure name too long")
	}
	p.D.CrashProc = crashProc
	if err := k.writeProc(p); err != nil {
		return err
	}
	k.indexPut(p)
	return nil
}

// indexPut writes the process through to the candidate index (no-op when
// the index is off or full — the full-walk fallback still finds it).
func (k *Kernel) indexPut(p *Process) {
	if k.CandIndex == nil {
		return
	}
	//owvet:allow errdrop: a full or unwritable index only loses the accelerator entry, never the candidate
	_ = k.CandIndex.Put(p.PID, p.Addr, p.D.Name, p.D.Program, p.D.CrashProc)
}

// Exit terminates the process and unlinks its descriptor from the kernel
// process list.
func (k *Kernel) Exit(p *Process, code int) error {
	p.Exited = true
	p.ExitCode = code
	p.D.State = layout.ProcZombie
	if err := k.writeProc(p); err != nil {
		return err
	}
	if k.CandIndex != nil {
		//owvet:allow errdrop: a failed tombstone leaves a zombie entry the salvage-time descriptor check drops anyway
		_ = k.CandIndex.Delete(p.PID)
	}
	// Unlink from the list so resurrection does not see a zombie.
	if k.Globals.ProcListHead == p.Addr {
		k.Globals.ProcListHead = p.D.Next
		if err := k.syncGlobals(); err != nil {
			return err
		}
	} else {
		cur := k.Globals.ProcListHead
		for cur != 0 {
			d, err := k.readProcRecord(cur)
			if err != nil {
				return err
			}
			if d.Next == p.Addr {
				d.Next = p.D.Next
				if cp, ok := k.procs[d.PID]; ok && cp.Addr == cur {
					cp.D.Next = d.Next
				}
				if err := k.writeSlot(cur, procSlotSize, layout.TypeProc, d.EncodePayload()); err != nil {
					return err
				}
				break
			}
			cur = d.Next
		}
	}
	k.logf("pid %d exited (code %d)", p.PID, code)
	return nil
}

// SaveContextToStack pushes the live register state onto the kernel stack,
// as the syscall entry and the halt NMI handler do.
func (k *Kernel) SaveContextToStack(p *Process) error {
	p.Ctx.Saved = true
	return layout.WriteContext(k.M.Mem, p.D.KStack, &p.Ctx)
}

// KernelStackFrames lists the kernel-stack frames of live processes, a
// fault-injection target set.
func (k *Kernel) KernelStackFrames() []int {
	var out []int
	for _, p := range k.Procs() {
		out = append(out, phys.FrameOf(p.D.KStack))
	}
	return out
}
