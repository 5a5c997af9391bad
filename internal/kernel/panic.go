package kernel

import (
	"errors"
	"fmt"

	"otherworld/internal/hw"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/trace"
)

// PanicKind classifies a kernel failure.
type PanicKind int

// Panic kinds.
const (
	// PanicOops is a detected fatal error (bad dereference, corrupted
	// structure, protection fault, OOM with nothing to evict).
	PanicOops PanicKind = iota
	// PanicHang is a wedged kernel. With the watchdog hardening, stall
	// detection raises an NMI and the microreboot proceeds; without it
	// the system stalls forever.
	PanicHang
	// PanicDoubleFault is a double fault. The stock KDump path stopped
	// the system on double faults; the paper's hardening fixed the
	// handler to start the microreboot.
	PanicDoubleFault
)

func (p PanicKind) String() string {
	switch p {
	case PanicOops:
		return "oops"
	case PanicHang:
		return "hang"
	case PanicDoubleFault:
		return "double-fault"
	}
	return fmt.Sprintf("PanicKind(%d)", int(p))
}

// OopsKind is the detected-error subcategory, kept for diagnostics.
type OopsKind int

// Oops subcategories.
const (
	OopsBadStructure OopsKind = iota
	OopsBadPageTable
	OopsProtection
	OopsOOM
	OopsWildWrite
	OopsExplicit
)

// PanicEvent is the recorded kernel failure.
type PanicEvent struct {
	Kind   PanicKind
	Oops   OopsKind
	Reason string
	// CPU is the processor that executed the failing code.
	CPU int
}

func (e *PanicEvent) Error() string {
	return fmt.Sprintf("kernel panic (%s): %s", e.Kind, e.Reason)
}

// IsPanic reports whether err is (or wraps) a kernel panic.
func IsPanic(err error) bool {
	var pe *PanicEvent
	return errors.As(err, &pe)
}

// oopsf records a detected fatal kernel error. The first panic wins;
// subsequent errors while already down return the original event.
func (k *Kernel) oopsf(kind OopsKind, format string, args ...any) error {
	if k.panicState == nil {
		k.panicState = &PanicEvent{
			Kind:   PanicOops,
			Oops:   kind,
			Reason: fmt.Sprintf(format, args...),
			CPU:    0,
		}
		k.logf("PANIC: %s", k.panicState.Reason)
		k.tracePanic()
	}
	return k.panicState
}

// raise records a non-oops failure (hang, double fault).
func (k *Kernel) raise(kind PanicKind, reason string) error {
	if k.panicState == nil {
		k.panicState = &PanicEvent{Kind: kind, Reason: reason, CPU: 0}
		k.logf("PANIC (%s): %s", kind, reason)
		k.tracePanic()
	}
	return k.panicState
}

// executeKernelFunc models running a kernel function: if the injector
// clobbered bytes in its text range, the corrupted instruction misbehaves.
// Silent wild writes are performed here and execution continues — the
// error-propagation case; everything else is returned for the caller to
// manifest as a failure. A silent-wild-write instruction stores through the
// same bad pointer every time, so after the first store the byte is treated
// as benign: re-executing it re-corrupts the same location, not new ones.
func (k *Kernel) executeKernelFunc(fn FuncID, p *Process) Misbehavior {
	if k.panicState != nil {
		return BehaveFailStop
	}
	behave := k.Text.CheckExecute(fn, k.rng.Float64)
	if behave == BehaveWildWriteSilent {
		k.wildWrite()
		k.Text.Settle(fn, BehaveWildWriteSilent)
		return BehaveBenign
	}
	return behave
}

// manifest converts a misbehaviour into the corresponding kernel failure.
func (k *Kernel) manifest(behave Misbehavior, where string) error {
	if behave != BehaveBenign {
		k.Tracer.Record(trace.Event{
			Kind: trace.KindFaultManifest,
			A:    uint64(behave),
			Note: where,
		})
	}
	switch behave {
	case BehaveFailStop:
		return k.oopsf(OopsExplicit, "invalid opcode in %s path", where)
	case BehaveWildWriteStop:
		detected := k.wildWrite()
		if detected {
			return k.oopsf(OopsProtection, "stray store trapped in %s path", where)
		}
		return k.oopsf(OopsWildWrite, "stray store then fault in %s path", where)
	case BehaveHang:
		return k.raise(PanicHang, "kernel wedged in "+where+" path")
	case BehaveDoubleFault:
		return k.raise(PanicDoubleFault, "double fault in "+where+" path")
	default:
		return nil
	}
}

// wildWrite performs a stray store — the error-propagation hazard
// Section 4 analyses. Half of the stray stores go through pointers derived
// from live kernel state (a stale or mangled pointer still points near what
// the kernel was touching), so they land in recently-used memory: user
// frames, page-table pages and kernel heap records; the rest scatter
// uniformly over physical memory. It reports whether the store was
// *detected* (trapped) rather than silently applied:
//
//   - stores into write-protected frames (the crash-kernel image) trap via
//     memory hardware;
//   - with user-space protection enabled, stores into user frames outside a
//     legitimate copyin/copyout window trap, because the kernel page-table
//     set does not map user memory (Section 4).
func (k *Kernel) wildWrite() (detected bool) {
	var addr uint64
	if t, ok := k.biasedWildTarget(); ok && k.rng.Chance(0.5) {
		addr = t
	} else {
		addr = uint64(k.rng.Int63n(int64(k.M.Mem.Size() - 8)))
	}
	frame := phys.FrameOf(addr)
	kind := k.M.Mem.Kind(frame)

	k.Perf.WildWrites++
	if k.P.UserSpaceProtection && kind == phys.FrameUser && !k.inCopyWindow {
		k.Perf.WildWritesTrapped++
		return true
	}
	// A stray store is rarely a single word: the clobbered instruction
	// usually sits in a copy or initialization loop, so a short run of
	// bytes is overwritten before anything faults.
	junk := make([]byte, 16+k.rng.Intn(113))
	if int(addr)+len(junk) > k.M.Mem.Size() {
		junk = junk[:k.M.Mem.Size()-int(addr)]
	}
	k.rng.Read(junk)
	if err := k.M.Mem.WriteAt(addr, junk); err != nil {
		// Protected frame (crash image): the hardware trapped the store.
		k.Perf.WildWritesTrapped++
		return true
	}
	k.Perf.WildWritesLanded++
	if kind == phys.FramePageTable {
		k.Perf.WildWritesPageTable++
	}
	return false
}

// biasedWildTarget picks a physical address in recently-used memory: a
// resident user page, a page-table page or a kernel heap frame of a random
// live process. ok is false if nothing suitable was found.
func (k *Kernel) biasedWildTarget() (uint64, bool) {
	roll := k.rng.Float64()
	// A pointer derived from live kernel state overwhelmingly points at
	// data buffers (user pages); the compact metadata — heap records and
	// page-table pages — is a thin slice of the kernel's working set, so
	// only a small share of stray stores land there (the paper observed
	// kernel-structure corruption blocking resurrection in just 3 of
	// 2000 runs).
	// 1.5%: kernel heap records.
	if roll < 0.015 {
		if frames := k.Heap.Frames(); len(frames) > 0 {
			f := frames[k.rng.Pick(len(frames))]
			return phys.FrameAddr(f) + uint64(k.rng.Intn(phys.PageSize-8)), true
		}
		return 0, false
	}
	procs := k.Procs()
	if len(procs) == 0 {
		return 0, false
	}
	p := procs[k.rng.Pick(len(procs))]
	// Collect the populated page-directory slots (the process's live
	// address-space spans), then aim within one of them.
	var tables []uint64
	for dir := 0; dir < layout.DirEntries; dir++ {
		ent, err := k.M.Mem.ReadU64(p.D.PageDir + uint64(dir)*layout.PTESize)
		if err != nil || ent == 0 || ent%phys.PageSize != 0 || ent >= uint64(k.M.Mem.Size()) {
			continue
		}
		tables = append(tables, ent)
	}
	if len(tables) == 0 {
		return 0, false
	}
	ent := tables[k.rng.Pick(len(tables))]
	// 1.5%: hit the page-table page itself (the rare corruption class
	// that can defeat user-space protection, as in the paper's single
	// residual MySQL case).
	if roll < 0.015+0.015 {
		return ent + uint64(k.rng.Intn(phys.PageSize-8)), true
	}
	// 97%: a resident user page under it.
	for ptry := 0; ptry < 64; ptry++ {
		slot := k.rng.Intn(layout.PTEsPerPage)
		raw, err := k.M.Mem.ReadU64(ent + uint64(slot)*layout.PTESize)
		if err != nil {
			continue
		}
		pte := layout.PTE(raw)
		if pte.Present() && pte.Frame() < k.M.Mem.NumFrames() {
			return phys.FrameAddr(pte.Frame()) + uint64(k.rng.Intn(phys.PageSize-8)), true
		}
	}
	return 0, false
}

// TransferOutcome reports how the main→crash control transfer went.
type TransferOutcome struct {
	OK bool
	// Reason explains a failed transfer.
	Reason string
	// HaltAcked reports whether all CPUs acknowledged the halt NMI.
	HaltAcked bool
}

// crashImageMagicOffset is where LoadCrashImage writes its sentinel within
// the crash region.
const crashImageMagic uint64 = 0x4F5448455257524C // "OTHERWRL"

// LoadCrashImage installs the crash-kernel image into the reserved region
// and write-protects it (Section 3.1: the image "is left there untouched
// and uninitialized, protected by memory hardware").
func (k *Kernel) LoadCrashImage() error {
	r := k.P.CrashRegion
	if r.Frames == 0 {
		return fmt.Errorf("kernel: no crash region configured")
	}
	base := phys.FrameAddr(r.Start)
	if err := k.M.Mem.WriteU64(base, crashImageMagic); err != nil {
		return fmt.Errorf("kernel: write crash image: %w", err)
	}
	for f := r.Start; f < r.End(); f++ {
		if err := k.M.Mem.SetKind(f, phys.FrameCrashImage); err != nil {
			return err
		}
		if err := k.M.Mem.Protect(f, true); err != nil {
			return err
		}
	}
	k.logf("crash kernel image loaded at %v (protected)", r)
	return nil
}

// crashImageIntact verifies the crash-region sentinel.
func (k *Kernel) crashImageIntact() bool {
	v, err := k.M.Mem.ReadU64(phys.FrameAddr(k.P.CrashRegion.Start))
	return err == nil && v == crashImageMagic
}

// AttemptTransfer models the ~100 lines of code that pass control from the
// failed main kernel to the crash kernel (Section 3.2), including the
// Section 6 hardening fixes. It must be called after the kernel panicked.
//
// The transfer can fail — these are Table 5's "failure to boot the crash
// kernel" cases — if: the system stalled with no watchdog; a double fault
// hit the unfixed KDump handler; the panic/transfer code itself was
// clobbered; the interrupt descriptor table's kexec gate was corrupted;
// CPUs fail to acknowledge the halt NMI because the interrupt-frame words
// on a running thread's kernel stack were corrupted; or the pre-hardening
// panic path trips over a corrupted stack or process descriptor.
func (k *Kernel) AttemptTransfer() TransferOutcome {
	if k.panicState == nil {
		return TransferOutcome{OK: false, Reason: "no panic pending"}
	}
	h := k.P.Hardening

	switch k.panicState.Kind {
	case PanicHang:
		if !k.M.Watchdog || !h.WatchdogNMI {
			return TransferOutcome{Reason: "system stalled: no watchdog NMI to recover"}
		}
	case PanicDoubleFault:
		if !h.DoubleFaultMicroreboot {
			return TransferOutcome{Reason: "double fault: stock KDump handler stopped the system"}
		}
	}

	// The panic-reporting path runs kernel code; if its text was
	// clobbered the transfer never starts.
	if k.Text.CheckExecute(FuncPanic, k.rng.Float64) != BehaveBenign {
		return TransferOutcome{Reason: "panic path itself corrupted"}
	}

	cur := k.currentProcess()

	if !h.NoStackPrintRecursion && cur != nil {
		// The stock KDump path walks the failing thread's stack to print
		// it; a corrupted frame chain recurses only when the damage sits
		// on the words the walker follows (a few percent of scratch
		// corruptions).
		if _, ok := k.stackRangeIntact(cur.D.KStack, kstackScratchStart, phys.PageSize); !ok && k.rng.Chance(0.04) {
			return TransferOutcome{Reason: "infinite recursion printing corrupted stack (pre-hardening KDump)"}
		}
	}
	if !h.NoTrustCurrent && cur != nil {
		d := cur.D // primed with the names it should hold: a sound record allocates nothing
		if err := d.Read(k.M.Mem, cur.Addr, k.P.VerifyCRC, &k.recBuf); err != nil {
			return TransferOutcome{Reason: "panic path dereferenced corrupted current process descriptor"}
		}
	}

	// Halt every other CPU; each must save its thread's context onto the
	// thread's kernel stack and set the global saved flag (Section 3.2).
	// nmiFrameBroken reports whether a corrupted interrupt-frame slot on
	// the thread's stack actually breaks the NMI handler: about half of
	// the possible corrupt values still let the handler complete.
	nmiFrameBroken := func(p *Process) bool {
		if _, ok := k.stackRangeIntact(p.D.KStack, kstackNMIStart, kstackNMIEnd); ok {
			return false
		}
		return k.rng.Chance(0.5)
	}

	acked := k.M.BroadcastHaltNMI(k.panicState.CPU, func(cpu *hw.CPU) bool {
		p := k.procs[cpu.CurrentPID]
		if p == nil {
			return true // idle CPU has nothing to save
		}
		// The NMI handler builds its interrupt frame on the thread's
		// kernel stack; if those words were corrupted the handler
		// faults and never acknowledges.
		if nmiFrameBroken(p) {
			return false
		}
		return k.SaveContextToStack(p) == nil
	})
	if !acked {
		return TransferOutcome{Reason: "CPU failed to acknowledge halt NMI (corrupted interrupt frame)", HaltAcked: false}
	}
	// The failing CPU saves the context of its own thread too.
	if cur != nil {
		if nmiFrameBroken(cur) {
			return TransferOutcome{Reason: "failing CPU could not save context (corrupted interrupt frame)", HaltAcked: false}
		}
		if err := k.SaveContextToStack(cur); err != nil {
			return TransferOutcome{Reason: "failing CPU context save failed", HaltAcked: false}
		}
	}

	// Execute the transfer stub and jump through the kexec gate.
	if k.Text.CheckExecute(FuncTransferStub, k.rng.Float64) != BehaveBenign {
		return TransferOutcome{Reason: "transfer stub corrupted"}
	}
	if _, ok := hw.ReadIDTEntry(k.M.Mem, hw.VecKexec); !ok {
		return TransferOutcome{Reason: "kexec IDT gate corrupted"}
	}
	if !k.crashImageIntact() {
		return TransferOutcome{Reason: "no intact crash kernel image in reserved region"}
	}

	k.logf("control transferred to crash kernel (%s)", k.panicState.Kind)
	return TransferOutcome{OK: true, HaltAcked: true}
}

// currentProcess returns the process the failing CPU was executing.
func (k *Kernel) currentProcess() *Process {
	if len(k.M.CPUs) == 0 {
		return nil
	}
	return k.procs[k.M.CPUs[k.panicCPU()].CurrentPID]
}

func (k *Kernel) panicCPU() int {
	if k.panicState != nil && k.panicState.CPU < len(k.M.CPUs) {
		return k.panicState.CPU
	}
	return 0
}

// InjectOops lets tests and the demo force a clean panic without fault
// injection, modelling an explicit BUG() in the kernel.
func (k *Kernel) InjectOops(reason string) error {
	return k.oopsf(OopsExplicit, "%s", reason)
}

// RaiseHangForTest wedges the kernel, as a livelock would; exposed for
// harnesses exercising the watchdog-less stall path.
func (k *Kernel) RaiseHangForTest() { _ = k.raise(PanicHang, "test-induced stall") }
