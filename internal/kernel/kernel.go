// Package kernel implements the simulated monolithic operating system
// kernel that Otherworld microreboots. It is the reproduction's stand-in
// for the paper's modified Linux 2.6.18: processes, two-level page tables,
// demand paging with swap, a VFS with a dirty-tracked page cache, terminals,
// signals, System-V shared memory, pipes and sockets, a system-call layer
// with the optional user-space-protection page-table switch, and the panic
// and transfer-of-control paths.
//
// All resurrection-critical kernel state is stored as layout records in the
// machine's simulated physical memory, anchored at a fixed physical address,
// so the crash kernel (package resurrect) can rebuild processes by parsing
// raw memory — and so injected faults corrupt exactly the bytes resurrection
// later depends on.
package kernel

import (
	"fmt"

	"otherworld/internal/disk"
	"otherworld/internal/fs"
	"otherworld/internal/hw"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/sim"
	"otherworld/internal/trace"
)

// GlobalsFrame is the fixed physical frame of the kernel globals anchor.
// Like the paper's kernel, the address is a compile-time constant, which is
// how the crash kernel locates the main kernel's process list (Section 3.3).
const GlobalsFrame = 2

// GlobalsAddr is the physical address of the globals record.
const GlobalsAddr = uint64(GlobalsFrame) * phys.PageSize

// TextFrames is the size of the kernel text region in frames (256 KiB of
// modelled code; the fault injector targets this region).
const TextFrames = 64

// KStackSize is the per-thread kernel stack size (one frame).
const KStackSize = phys.PageSize

// Hardening collects the robustness fixes the paper added to lift the
// successful-resurrection rate from 89% to 97% (Section 6). Each is
// independently togglable for the ablation campaign.
type Hardening struct {
	// WatchdogNMI converts detected system stalls into an NMI that starts
	// the microreboot (software lock detection + hardware watchdog).
	WatchdogNMI bool
	// DoubleFaultMicroreboot fixes the double-fault handler to invoke the
	// crash kernel instead of stopping the system (the KDump behaviour
	// the paper corrected).
	DoubleFaultMicroreboot bool
	// NoStackPrintRecursion prevents infinite recursion while printing a
	// corrupted stack during panic.
	NoStackPrintRecursion bool
	// NoTrustCurrent stops the panic path from relying on the validity of
	// the currently executing process's descriptor.
	NoTrustCurrent bool
}

// FullHardening enables every fix.
func FullHardening() Hardening {
	return Hardening{
		WatchdogNMI:            true,
		DoubleFaultMicroreboot: true,
		NoStackPrintRecursion:  true,
		NoTrustCurrent:         true,
	}
}

// NoHardening disables every fix, reproducing the paper's initial 89%
// configuration.
func NoHardening() Hardening { return Hardening{} }

// Params configures a kernel instance.
type Params struct {
	// VerifyCRC enables checksum validation when the kernel (and later
	// the crash kernel) reads its own records — the Section 4 integrity
	// hardening.
	VerifyCRC bool
	// UserSpaceProtection enables the Section 4 protected mode: on every
	// system call the kernel switches to a page-table set that does not
	// map user memory, flushing the TLB, and any direct kernel write to a
	// user frame faults instead of corrupting application data.
	UserSpaceProtection bool
	// Hardening selects the Section 6 robustness fixes.
	Hardening Hardening
	// SwapDevice is the symbolic name of this kernel's swap partition.
	// The main and crash kernels use different partitions (Section 3.2).
	SwapDevice string
	// CrashRegion is the reservation holding the crash-kernel image and
	// working memory.
	CrashRegion phys.Region
	// Seed drives the kernel's internal nondeterminism (fault
	// manifestation, eviction choice).
	Seed int64
	// Net is the external network wire, shared across kernel generations.
	Net *Network
	// Consoles is the external console hub, shared across generations.
	Consoles *ConsoleHub
	// FastBoot models the Section 7 initialization optimizations: the
	// crash kernel ran part of its initialization when it was installed
	// and reuses the dead kernel's device information instead of a full
	// probe, cutting boot time.
	FastBoot bool
}

// SpeculationResolver turns a speculated (copy-on-access) page into a
// resident one. The resurrection engine's lazy install registers one on the
// crash kernel: the page-fault path calls ResolveSpeculated on first touch,
// and the scheduler drives SweepSpeculated between quanta so every
// speculation is eventually resolved even if never touched.
type SpeculationResolver interface {
	// ResolveSpeculated validates and privately copies the speculated page
	// at page-aligned va, replacing the PTE with a resident mapping. It must
	// leave the page resident even when validation fails (the fallback path
	// copies the scan-time snapshot instead).
	ResolveSpeculated(p *Process, va uint64) error
	// SweepSpeculated resolves up to limit pending speculations in a
	// deterministic order, returning how many pages it resolved or released.
	SweepSpeculated(limit int) (int, error)
}

// Kernel is a running operating system kernel instance.
type Kernel struct {
	M  *hw.Machine
	FS *fs.FlatFS
	P  Params

	// Alloc hands out this kernel's physical frames.
	Alloc *phys.FrameAllocator
	// Heap allocates kernel records inside heap frames.
	Heap *Heap
	// Text describes the kernel text region and its corruption state.
	Text *Text

	// Globals mirrors the globals record; every mutation is written
	// through to GlobalsAddr (or the crash kernel's private anchor).
	Globals layout.Globals
	// globalsAddr is where this kernel keeps its globals record. The
	// main kernel uses the fixed GlobalsAddr; a crash kernel keeps a
	// private anchor inside its reserved region until it morphs.
	globalsAddr uint64

	// procs caches runtime process state keyed by PID; authoritative
	// state lives in the records the cache points at.
	procs map[uint32]*Process
	// procOrder preserves creation order for deterministic scheduling.
	procOrder []uint32

	swap      *disk.SwapDevice
	terminals map[uint32]*ttyRuntime

	// Disk is the block-layer crash model beneath the page cache. When
	// set, every page-cache flush routes through it (volatile until a
	// barrier) and fsync issues the barrier; nil means writes reach the
	// platter directly and durably, the pre-model behavior. It is machine
	// state — core attaches the same model to every kernel generation.
	Disk *disk.CrashModel

	rng  *sim.RNG
	cost sim.CostModel

	// Perf accumulates the cycle accounting behind Table 3.
	Perf PerfCounters

	// panicState is non-nil once the kernel has failed.
	panicState *PanicEvent

	// inCopyWindow is set while a copyin/copyout helper is legitimately
	// accessing user memory under user-space protection.
	inCopyWindow bool

	// isCrashKernel is true from crash-kernel boot until the morph.
	isCrashKernel bool

	// recBuf is the record buffer every kernel record is decoded through
	// (a record type's Read) and encoded into (encode): a decoded value
	// shares nothing with it, and each image is written before the next
	// record is read or built. Boot sizes it for the largest record slot,
	// and a decode or encode that outgrows it keeps the grown storage.
	// pageBuf is the kernel's byte scratch: a page of a file, a
	// terminal screen (pageBuffer). Like the frame table they have one
	// writer at a time (the kernel's goroutine, which also runs a
	// resurrection pass's commits), and each decode, encode or copy is done
	// with them before the next one starts.
	recBuf  []byte
	pageBuf []byte
	// paths holds, for each open-file record this kernel wrote, the path
	// it wrote there, keyed by the record's address: a re-read of the
	// record decodes its path to that string instead of a copy
	// (readFileRec). openFile and InstallOpenFile add an entry and
	// closeFile deletes it, so it never holds more entries than the heap
	// holds file slots.
	paths map[uint64]string
	// stackBuf is the kernel-stack pattern scratch (stackBuffer), under
	// the same one-writer rule.
	stackBuf []byte
	// stackPattern generates every kernel stack this kernel builds, past
	// the saved context (newStackPattern).
	stackPattern *phys.Pattern

	// Tracer is the crash-surviving flight recorder: a ring of binary
	// events in an unprotected sub-region of the crash reservation that
	// the machine parses after a failure (package trace). It is
	// attached by core after boot; nil (tracing off) is always safe.
	Tracer *trace.Ring

	// Metrics is the machine-lifetime metrics registry, attached by core
	// alongside the tracer so kernel-resident workloads (the WAL app's
	// commit-to-durable histogram, for one) can publish instruments; nil
	// (metrics plane off) is always safe — Registry methods are nil-tolerant.
	Metrics *metrics.Registry

	// Spec resolves speculated (copy-on-access) pages left behind by the
	// lazy resurrection install; nil means no speculations are outstanding
	// and a speculated PTE is a page-table corruption.
	Spec SpeculationResolver

	// CandIndex is the crash-surviving candidate index writer, attached by
	// core alongside the tracer: every process create/exit and
	// crash-procedure registration is written through so the crash kernel
	// can seed resurrection scanners without walking the whole process
	// list. nil (index off) is always safe.
	CandIndex *layout.IndexWriter

	// resurrectionLog collects one-line events for the narrated demo.
	Log []string
}

// IsCrashKernel reports whether this kernel is (still) the crash kernel:
// booted after a failure and not yet morphed into the main kernel. The
// paper's init scripts use exactly this query to select the second swap
// partition.
func (k *Kernel) IsCrashKernel() bool { return k.isCrashKernel }

// BootOptions selects where a kernel boots from.
type BootOptions struct {
	// Region is the physical memory the kernel may use. A cold-booted
	// main kernel gets everything except the crash reservation; a crash
	// kernel gets only the reservation.
	Region phys.Region
	// GlobalsAt overrides the globals anchor address (crash kernels keep
	// a private anchor until morphing). Zero means the fixed GlobalsAddr.
	GlobalsAt uint64
	// BootCount is carried across morphs.
	BootCount uint32
	// IsCrashKernel marks a kernel booting inside the reservation after a
	// failure. Initialization scripts query it to pick the right swap
	// partition, and drivers may use it to re-initialize differently
	// (Section 3.2 and footnote 2).
	IsCrashKernel bool
}

// Boot initializes a kernel over the machine. It claims the null, IDT and
// globals frames, installs the IDT, lays out kernel text, creates the heap,
// opens the swap partition and writes the globals anchor.
func Boot(m *hw.Machine, filesystem *fs.FlatFS, p Params, opt BootOptions) (*Kernel, error) {
	k := &Kernel{
		M:           m,
		FS:          filesystem,
		P:           p,
		procs:       make(map[uint32]*Process),
		terminals:   make(map[uint32]*ttyRuntime),
		paths:       make(map[uint64]string),
		recBuf:      make([]byte, 0, procSlotSize),
		rng:         sim.NewRNG(p.Seed),
		cost:        sim.DefaultCostModel(),
		globalsAddr: opt.GlobalsAt,
	}
	k.isCrashKernel = opt.IsCrashKernel
	k.stackPattern = newStackPattern(p.Seed)
	if k.globalsAddr == 0 {
		k.globalsAddr = GlobalsAddr
	}

	k.Alloc = phys.NewFrameAllocator(m.Mem, opt.Region)

	// Claim the fixed anchor frames when they are inside our region.
	if opt.Region.Contains(0) {
		if err := k.Alloc.Claim(0, phys.FrameKernelText); err != nil {
			return nil, fmt.Errorf("kernel: claim null frame: %w", err)
		}
	}
	if opt.Region.Contains(GlobalsFrame) && k.globalsAddr == GlobalsAddr {
		if err := k.Alloc.Claim(GlobalsFrame, phys.FrameKernelHeap); err != nil {
			return nil, fmt.Errorf("kernel: claim globals frame: %w", err)
		}
	}

	text, err := NewText(m.Mem, k.Alloc, opt.Region, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("kernel: lay out text: %w", err)
	}
	k.Text = text

	// Point the interrupt descriptor table at this kernel's handlers.
	if opt.Region.Contains(hw.IDTFrame) {
		if err := hw.InstallIDT(m.Mem, k.Alloc, k.handlerBase()); err != nil {
			return nil, fmt.Errorf("kernel: install IDT: %w", err)
		}
	} else {
		// A crash kernel booting inside its reservation still owns the
		// machine IDT; rewrite the entries without claiming the frame.
		for v := 0; v < hw.NumVectors; v++ {
			if err := hw.WriteIDTEntry(m.Mem, v, k.handlerBase()+uint64(v)); err != nil {
				return nil, fmt.Errorf("kernel: rewrite IDT: %w", err)
			}
		}
	}

	k.Heap = NewHeap(m.Mem, k.Alloc)

	// A crash kernel booting inside its reservation must not clobber the
	// dead main kernel's globals at the fixed anchor before resurrection
	// parses them; it keeps a private anchor until it morphs.
	if k.globalsAddr == GlobalsAddr && !opt.Region.Contains(GlobalsFrame) {
		f, err := k.Alloc.Alloc(phys.FrameKernelHeap)
		if err != nil {
			return nil, fmt.Errorf("kernel: private globals frame: %w", err)
		}
		k.globalsAddr = phys.FrameAddr(f)
	}

	if p.SwapDevice != "" {
		dev, err := m.Bus.Open(p.SwapDevice)
		if err != nil {
			return nil, fmt.Errorf("kernel: open swap: %w", err)
		}
		k.swap = disk.NewSwapDevice(dev)
	}

	k.Globals = layout.Globals{
		Version:           1,
		BootCount:         opt.BootCount,
		NextPID:           1,
		CrashRegionStart:  uint64(p.CrashRegion.Start),
		CrashRegionFrames: uint64(p.CrashRegion.Frames),
		HeapStart:         uint64(opt.Region.Start),
		HeapFrames:        uint64(opt.Region.Frames),
	}
	swapAddr, err := k.writeSwapTable()
	if err != nil {
		return nil, err
	}
	k.Globals.SwapTable = swapAddr
	if err := k.syncGlobals(); err != nil {
		return nil, err
	}

	// Driver probing walks the machine's device complement; the fast-boot
	// path (Section 7) reuses the dead kernel's device information and
	// pays only sanity checks for re-probeable devices.
	probe := k.cost.DriverProbe
	if len(m.Devices) > 0 {
		probe = hw.ProbeAll(m.Devices)
	}
	if p.FastBoot {
		if len(m.Devices) > 0 {
			probe = hw.ProbeChangedOnly(m.Devices)
		} else {
			probe = k.cost.DriverProbe / 5
		}
		m.Clock.Advance(k.cost.KernelInit/3 + probe + k.cost.FSMount)
	} else {
		m.Clock.Advance(k.cost.KernelInit + probe + k.cost.FSMount)
	}
	return k, nil
}

// handlerBase is the text address interrupt handlers notionally live at.
func (k *Kernel) handlerBase() uint64 {
	return k.Text.Base() + uint64(k.Text.Func(FuncInterrupt).Start)
}

// writeSwapTable builds and stores the swap-area descriptor array.
func (k *Kernel) writeSwapTable() (uint64, error) {
	var t layout.SwapTable
	if k.swap != nil {
		t.Areas[0] = layout.SwapArea{
			Device: k.P.SwapDevice,
			Active: true,
			Slots:  uint32(k.swap.Slots()),
		}
	}
	addr, _, err := k.Heap.WriteNewRecord(k.encode(t.AppendRecord))
	return addr, err
}

// syncGlobals writes the cached globals through to memory.
func (k *Kernel) syncGlobals() error {
	return k.reseal(k.globalsAddr, k.encode(k.Globals.AppendRecord))
}

// GlobalsAnchor returns the physical address of this kernel's globals
// record.
func (k *Kernel) GlobalsAnchor() uint64 { return k.globalsAddr }

// Swap returns the kernel's swap device (nil if none configured).
func (k *Kernel) Swap() *disk.SwapDevice { return k.swap }

// RNG exposes the kernel's deterministic random source, used by the fault
// injector so one seed replays a whole experiment.
func (k *Kernel) RNG() *sim.RNG { return k.rng }

// Cost returns the virtual-time cost model.
func (k *Kernel) Cost() sim.CostModel { return k.cost }

// Panicked returns the pending panic event, or nil while healthy.
func (k *Kernel) Panicked() *PanicEvent { return k.panicState }

// logf appends a narrated event line.
func (k *Kernel) logf(format string, args ...any) {
	k.Log = append(k.Log, fmt.Sprintf(format, args...))
}

// traceCounters snapshots the syscall/pagefault counters into the flight
// recorder; the ring's newest snapshot tells the crash kernel how much work
// the dead kernel had done.
func (k *Kernel) traceCounters() {
	k.Tracer.Record(trace.Event{
		Kind: trace.KindCounters,
		A:    k.Perf.Syscalls,
		B:    trace.PackCounters(k.Perf.PageFaults, k.Perf.SwapIns),
	})
}

// tracePanic writes the failure context into the flight recorder: panic
// kind and reason, the failing CPU, and the PID/PC/syscall of the thread it
// was executing. This is the last event the main kernel ever records — the
// crash kernel reads it back out of raw memory after the microreboot.
func (k *Kernel) tracePanic() {
	if k.Tracer == nil || k.panicState == nil {
		return
	}
	ev := trace.Event{
		Kind: trace.KindPanic,
		CPU:  uint8(k.panicState.CPU),
		Note: k.panicState.Reason,
	}
	if p := k.currentProcess(); p != nil {
		ev.PID = p.PID
		ev.PC = p.Ctx.PC
		ev.A, ev.B = trace.PackPanic(uint8(k.panicState.Kind), uint8(k.panicState.Oops),
			p.Ctx.InSyscall, p.Ctx.SyscallNo)
	} else {
		ev.A, ev.B = trace.PackPanic(uint8(k.panicState.Kind), uint8(k.panicState.Oops), false, 0)
	}
	k.traceCounters()
	k.Tracer.Record(ev)
}
