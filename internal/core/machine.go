// Package core is Otherworld's public API: a simulated machine whose main
// kernel keeps a passive crash kernel resident in a protected memory
// reservation, and which — on a kernel failure — transfers control to it,
// resurrects the selected application processes from the dead kernel's
// memory image, and morphs the crash kernel into the new main kernel
// (Sections 3.1–3.6 of the paper).
package core

import (
	"errors"
	"fmt"
	"time"

	"otherworld/internal/disk"
	"otherworld/internal/fs"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/metrics"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
	"otherworld/internal/sim"
	"otherworld/internal/trace"
)

// Options configures a machine.
type Options struct {
	// HW sizes the hardware (memory, CPUs, TLB, watchdog).
	HW hw.Config
	// CrashRegionMB is the size of the crash-kernel reservation; the
	// paper suggests 64 MB (Section 3.1).
	CrashRegionMB int
	// VerifyCRC enables record-checksum validation (Section 4).
	VerifyCRC bool
	// UserSpaceProtection enables the protected mode measured in Table 3.
	UserSpaceProtection bool
	// Hardening selects the Section 6 robustness fixes.
	Hardening kernel.Hardening
	// Resurrection selects which processes to revive after a microreboot
	// (the resurrection configuration file of Section 3.3).
	Resurrection resurrect.Config
	// Seed drives all simulated nondeterminism.
	Seed int64
	// SwapSlotsPerPartition sizes each of the two swap partitions.
	SwapSlotsPerPartition int
	// MapPagesResurrection enables the footnote-3 optimization: the crash
	// kernel maps resident pages in place instead of copying them.
	MapPagesResurrection bool
	// ResurrectIPC enables the Section 7 future-work extension: sockets
	// and (unlocked) pipes are resurrected instead of reported missing.
	ResurrectIPC bool
	// LazyInstall enables the demand-paged resurrection install: validated
	// candidates map their resident pages copy-on-access from the dead
	// kernel's frames and resume as soon as their resurrection-critical
	// records parse; each page is CRC-validated on first touch (or by the
	// scheduler's background sweeper) and a corrupt speculation falls the
	// whole candidate back to the eager full copy.
	LazyInstall bool
	// FastCrashBoot enables the Section 7 initialization optimizations:
	// part of the crash kernel's init runs when it is installed, and it
	// exploits the dead kernel's device information instead of a full
	// probe, shrinking the service interruption.
	FastCrashBoot bool
	// TraceEvents sizes the flight-recorder ring (in events) carved out of
	// the tail of each crash slot; 0 disables tracing. The ring survives
	// the kernel failure and is re-parsed by the crash kernel, pstore
	// style (see internal/trace).
	TraceEvents int
	// MetricsPages sizes the crash-surviving metrics segment (in pages)
	// carved out of each slot's tail after the ring; 0 disables the
	// metrics plane entirely (Machine.Metrics() returns nil and every
	// instrument becomes a no-op).
	MetricsPages int
	// CandidateIndexSlots sizes the crash-surviving candidate index (in
	// process entries) carved out of each slot's tail between the ring and
	// the metrics segment; 0 disables the index, and resurrection
	// discovers candidates by the full process-list walk. The index lets
	// the crash kernel seed scanners directly at fleet-sized populations
	// (see internal/layout's candidate index).
	CandidateIndexSlots int
	// DiskCrash configures the block-layer crash model. Zero value
	// disables it: writes reach the platter directly and durably, and
	// failure handling never touches the disk — the pre-model behavior,
	// so existing seeds and goldens are unperturbed.
	DiskCrash DiskCrashOptions
}

// DiskCrashOptions configures the deterministic block-layer crash model
// (internal/disk.CrashModel): a bounded volatile write cache under the page
// cache that can roll back at a kernel crash, a torn in-flight sector
// write, and a seeded undefined-order flush of dirty pages resurrection did
// not rescue.
type DiskCrashOptions struct {
	// Enabled turns the model on.
	Enabled bool
	// CacheDepth bounds the volatile write cache (acked-but-unbarriered
	// block writes); 0 selects disk.DefaultCacheDepth.
	CacheDepth int
}

// DefaultOptions returns the paper's experimental configuration: 1 GB VM,
// two CPUs, 64 MB crash reservation, all hardening on, CRC validation on,
// user-space protection off (the zero-overhead default mode).
func DefaultOptions() Options {
	return Options{
		HW:                    hw.DefaultConfig(),
		CrashRegionMB:         64,
		VerifyCRC:             true,
		Hardening:             kernel.FullHardening(),
		Resurrection:          resurrect.Config{All: true},
		SwapSlotsPerPartition: 16384, // 64 MB per partition
		TraceEvents:           512,
		MetricsPages:          4,
	}
}

// swap partition device names; the kernels alternate between them
// (Section 3.2's two-swap-partition design).
var swapDevNames = [2]string{"/dev/swap0", "/dev/swap1"}

// Machine is a running Otherworld system.
type Machine struct {
	HW       *hw.Machine
	FS       *fs.FlatFS
	Net      *kernel.Network
	Consoles *kernel.ConsoleHub

	// K is the current main kernel.
	K *kernel.Kernel

	opts Options
	cost sim.CostModel

	// slots are the two alternating crash-kernel reservations at the top
	// of physical memory; imageSlot indexes the one currently holding the
	// protected image.
	slots     [2]phys.Region
	imageSlot int
	// tail is the tail table: the frames each plane takes at the end of
	// every slot, in slot order; the protected image occupies the rest.
	tail [numTailParts]int
	// tracer is the current main kernel's flight recorder (nil if off).
	tracer *trace.Ring
	// candIndex is the current main kernel's index writer (nil when the
	// index is off).
	candIndex *layout.IndexWriter
	// metrics is the machine-lifetime registry (nil when the plane is off).
	metrics          *metrics.Registry
	metricsFlushErrs int64
	metricsDropped   int64
	// swapIdx is the partition the current main kernel swaps to.
	swapIdx int

	// diskModel is the block-layer crash model shared by every kernel
	// generation (nil when Options.DiskCrash is off). It runs only on the
	// serial failure-handling path, so its seeded stream is independent of
	// campaign and resurrection worker widths.
	diskModel *disk.CrashModel

	// Reboots counts completed microreboots.
	Reboots int
	// LastOutcome records the most recent failure handling.
	LastOutcome *FailureOutcome

	kernelSeq int64
}

// FailureResult classifies how a kernel failure ended.
type FailureResult int

// Failure results.
const (
	// ResultRecovered means the microreboot succeeded and the machine is
	// running under the morphed crash kernel.
	ResultRecovered FailureResult = iota
	// ResultSystemDown means control never reached the crash kernel; only
	// a full (cold) reboot can recover — Table 5's "failure to boot the
	// crash kernel".
	ResultSystemDown
)

func (r FailureResult) String() string {
	if r == ResultRecovered {
		return "recovered"
	}
	return "system-down"
}

// FailureOutcome is the complete record of one handled kernel failure.
type FailureOutcome struct {
	Result FailureResult
	// Panic is the kernel failure that triggered the microreboot.
	Panic *kernel.PanicEvent
	// Transfer reports the main→crash control transfer.
	Transfer kernel.TransferOutcome
	// Report is the resurrection report (nil if the transfer failed).
	Report *resurrect.Report
	// Interruption is the virtual time from failure to the machine
	// running again under the new main kernel (Table 6's third column,
	// before any service restart costs the workload adds). It reflects
	// the parallel schedule the resurrection engine actually modeled
	// (Report.Parallel), so it depends on the configured worker count.
	Interruption time.Duration
	// SerialInterruption is Interruption corrected to the serial schedule
	// model (Report.Duration): what the outage would have been with one
	// worker. Worker-count-independent, and equal to Interruption when
	// Workers=1. Zero when recovery did not reach resurrection.
	SerialInterruption time.Duration
	// Trace is the dead kernel's flight-recorder ring, parsed out of raw
	// physical memory before any recovery step touched it (nil when
	// tracing is disabled). It is populated even when the transfer fails,
	// so post-mortem context survives system-down outcomes too.
	Trace *trace.Parsed
	// DeadMetrics is the dead kernel's metrics segment, recovered from the
	// crash reservation before any recovery step touched it (nil when the
	// metrics plane is disabled). Corrupted pages are counted, not fatal.
	DeadMetrics *metrics.ParsedSegment
	// DiskCrash is the block-layer crash model's report for this failure
	// (nil when the model is off): rollback, tear and orphan-flush
	// accounting for the attribution and data-survival layers.
	DiskCrash *disk.CrashReport
}

// InterruptionAt re-evaluates the outage at an arbitrary resurrection
// worker count: everything outside the resurrection pass (transfer, boot,
// morph) is serial, so the correction swaps the pass's live schedule for
// the schedule model at the requested width. It is a pure function of
// worker-count-independent inputs, letting tables render serial and
// parallel columns regardless of how wide the live pool was.
func (fo *FailureOutcome) InterruptionAt(workers int) time.Duration {
	if fo == nil || fo.Report == nil {
		return fo.effectiveInterruption()
	}
	return fo.Interruption - fo.Report.Parallel.Duration + fo.Report.ScheduleAt(workers)
}

func (fo *FailureOutcome) effectiveInterruption() time.Duration {
	if fo == nil {
		return 0
	}
	return fo.Interruption
}

// NewMachine powers on a machine, cold-boots the main kernel and loads the
// crash kernel image into the reservation.
func NewMachine(opts Options) (*Machine, error) {
	if opts.HW.MemoryBytes == 0 {
		opts.HW = hw.DefaultConfig()
	}
	if opts.CrashRegionMB <= 0 {
		opts.CrashRegionMB = 64
	}
	if opts.SwapSlotsPerPartition <= 0 {
		opts.SwapSlotsPerPartition = 16384
	}
	m := &Machine{
		HW:       hw.NewMachine(opts.HW),
		FS:       fs.New(),
		Net:      kernel.NewNetwork(),
		Consoles: kernel.NewConsoleHub(),
		opts:     opts,
		cost:     sim.DefaultCostModel(),
	}
	total := m.HW.Mem.NumFrames()
	crashFrames := opts.CrashRegionMB << 20 / phys.PageSize
	if 2*crashFrames >= total {
		return nil, fmt.Errorf("core: %d MB of memory cannot hold two %d MB crash slots",
			m.HW.Mem.Size()>>20, opts.CrashRegionMB)
	}
	m.slots[0] = phys.Region{Start: total - 2*crashFrames, Frames: crashFrames}
	m.slots[1] = phys.Region{Start: total - crashFrames, Frames: crashFrames}
	m.imageSlot = 1
	// Each plane's share of the tail is clamped so the protected image
	// keeps the bulk of the slot.
	indexFrames := 0
	if opts.CandidateIndexSlots > 0 {
		indexFrames = ((opts.CandidateIndexSlots+1)*layout.IndexSlotSize + phys.PageSize - 1) / phys.PageSize
	}
	m.tail = [numTailParts]int{
		tailRing:    min(trace.FramesFor(opts.TraceEvents), crashFrames/2),
		tailIndex:   min(indexFrames, crashFrames/8),
		tailMetrics: max(0, min(opts.MetricsPages, crashFrames/4)),
	}
	if m.tail[tailMetrics] > 0 {
		m.metrics = metrics.NewRegistry()
	}

	for _, name := range swapDevNames {
		m.HW.Bus.Attach(newSwapPartition(name, opts.SwapSlotsPerPartition))
	}

	// The BIOS and boot loader run before the kernel (Table 6 cold-boot
	// accounting); kernel.Boot charges the rest.
	m.HW.Clock.Advance(m.cost.BIOS + m.cost.BootLoader)

	if opts.DiskCrash.Enabled {
		m.diskModel = disk.NewCrashModel(m.FS, opts.Seed^0xD15CC4A5, opts.DiskCrash.CacheDepth)
	}

	k, err := kernel.Boot(m.HW, m.FS, m.kernelParams(), kernel.BootOptions{
		Region: phys.Region{Start: 0, Frames: m.slots[m.imageSlot].Start},
	})
	if err != nil {
		return nil, fmt.Errorf("core: cold boot: %w", err)
	}
	k.Disk = m.diskModel
	k.Metrics = m.metrics
	m.K = k
	m.HW.Clock.Advance(m.cost.InitScripts)
	if err := k.LoadCrashImage(); err != nil {
		return nil, fmt.Errorf("core: load crash image: %w", err)
	}
	if err := m.attachTail(k, nil); err != nil {
		return nil, err
	}
	m.FlushMetrics()
	return m, nil
}

// DiskModel returns the block-layer crash model (nil when disabled).
func (m *Machine) DiskModel() *disk.CrashModel { return m.diskModel }

// tailPart names one plane in the crash slot's unprotected tail, in slot
// order: the tail runs image | ring | index | metrics and ends at the slot's
// end.
type tailPart int

const (
	tailRing tailPart = iota
	tailIndex
	tailMetrics
	numTailParts
)

// imageRegion is the write-protected crash-image part of a slot: the slot
// minus its tail.
func (m *Machine) imageRegion(slot phys.Region) phys.Region {
	frames := slot.Frames
	for _, n := range m.tail {
		frames -= n
	}
	return phys.Region{Start: slot.Start, Frames: frames}
}

// tailRegion is one plane's part of a slot's tail (zero region when the
// plane is off). Like the image, the tail sits inside the reservation,
// above every frame the allocators hand out.
func (m *Machine) tailRegion(slot phys.Region, p tailPart) phys.Region {
	if m.tail[p] == 0 {
		return phys.Region{}
	}
	start := m.imageRegion(slot).End()
	for _, n := range m.tail[:p] {
		start += n
	}
	return phys.Region{Start: start, Frames: m.tail[p]}
}

// attachTail claims the active slot's tail for kernel k and gives it fresh
// planes there. Every tail frame is unprotected, so the running kernel can
// write it and wild writes land on it, and tagged FrameReserved, so no
// allocator ever hands it out; after a morph the new kernel owns all
// memory, so alloc claims the frames too. The metrics segment gets its
// first flush from the caller, once the machine has switched kernels.
func (m *Machine) attachTail(k *kernel.Kernel, alloc *phys.FrameAllocator) error {
	slot := m.slots[m.imageSlot]
	for f := m.imageRegion(slot).End(); f < slot.End(); f++ {
		if alloc != nil {
			if err := alloc.Claim(f, phys.FrameReserved); err != nil {
				return fmt.Errorf("core: reserve crash slot tail: %w", err)
			}
		}
		_ = m.HW.Mem.Protect(f, false)              //owvet:allow errdrop: slot regions are validated at machine construction
		_ = m.HW.Mem.SetKind(f, phys.FrameReserved) //owvet:allow errdrop: same validated frame as the line above
	}
	m.attachTracer(k)
	m.attachIndex(k)
	return nil
}

// IndexRegion returns the physical region of the active candidate index
// (zero region when the index is off), for tests and tools that want to
// inspect or corrupt it.
func (m *Machine) IndexRegion() phys.Region {
	return m.tailRegion(m.slots[m.imageSlot], tailIndex)
}

// TraceRegion returns the physical region of the active flight-recorder
// ring (zero region when tracing is off), for tests and tools that want to
// inspect or corrupt it.
func (m *Machine) TraceRegion() phys.Region {
	return m.tailRegion(m.slots[m.imageSlot], tailRing)
}

// Tracer returns the current main kernel's flight recorder (nil if off).
func (m *Machine) Tracer() *trace.Ring { return m.tracer }

// attachTracer gives kernel k a fresh ring over the active slot's ring
// part and stamps the new generation's boot event.
func (m *Machine) attachTracer(k *kernel.Kernel) {
	ring := trace.NewRing(m.HW.Mem, m.TraceRegion(), uint32(m.kernelSeq))
	if ring == nil {
		return
	}
	ring.Reset()
	ring.Record(trace.Event{Kind: trace.KindBoot, A: uint64(k.Globals.BootCount)})
	k.Tracer = ring
	m.tracer = ring
}

// attachIndex gives kernel k a fresh candidate index over the active
// slot's index tail and repopulates it from the kernel's live processes
// (after a morph the resurrected processes were created before the new
// index existed). Generation is the kernel sequence number, so a stale
// index from an earlier generation can never masquerade as current.
func (m *Machine) attachIndex(k *kernel.Kernel) {
	reg := m.IndexRegion()
	if reg.Frames == 0 {
		return
	}
	slots := reg.Frames * phys.PageSize / layout.IndexSlotSize
	w, err := layout.NewIndexWriter(m.HW.Mem, phys.FrameAddr(reg.Start), slots, uint32(m.kernelSeq))
	if err != nil {
		// An unwritable index is strictly a lost optimization: the next
		// crash falls back to the full process-list walk.
		k.CandIndex = nil
		m.candIndex = nil
		return
	}
	for _, p := range k.Procs() {
		//owvet:allow errdrop: a full index only drops the accelerator entry; the full walk still finds the process
		_ = w.Put(p.PID, p.Addr, p.D.Name, p.D.Program, p.D.CrashProc)
	}
	k.CandIndex = w
	m.candIndex = w
}

// kernelParams assembles kernel parameters for the next kernel generation.
func (m *Machine) kernelParams() kernel.Params {
	m.kernelSeq++
	return kernel.Params{
		VerifyCRC:           m.opts.VerifyCRC,
		UserSpaceProtection: m.opts.UserSpaceProtection,
		Hardening:           m.opts.Hardening,
		SwapDevice:          swapDevNames[m.swapIdx],
		CrashRegion:         m.imageRegion(m.slots[m.imageSlot]),
		Seed:                m.opts.Seed*1000003 + m.kernelSeq,
		Net:                 m.Net,
		Consoles:            m.Consoles,
	}
}

// Run drives the scheduler for at most maxSteps quanta, flushing the
// metrics segment afterwards if the kernel is still healthy — a panicked
// kernel gets no final flush, so the segment holds the last pre-failure
// snapshot (the pstore discipline: the tail dies with the kernel).
func (m *Machine) Run(maxSteps int) kernel.RunResult {
	res := m.K.Run(maxSteps)
	if m.K.Panicked() == nil {
		m.FlushMetrics()
	}
	return res
}

// Start launches a named program (the fork+exec path).
func (m *Machine) Start(name, program string) (*kernel.Process, error) {
	return m.K.CreateProcess(name, program)
}

// ErrNoFailure is returned by HandleFailure when the kernel has not failed.
var ErrNoFailure = errors.New("core: kernel has not failed")

// HandleFailure runs the whole Otherworld response to a kernel failure:
// transfer of control, crash-kernel boot, application resurrection, and the
// morph into a new main kernel with a fresh crash image loaded. On a failed
// transfer the machine is down and only ColdReboot can revive it.
func (m *Machine) HandleFailure() (*FailureOutcome, error) {
	pe := m.K.Panicked()
	if pe == nil {
		return nil, ErrNoFailure
	}
	started := m.HW.Clock.Now()
	out := &FailureOutcome{Panic: pe}
	// The block-layer crash model fires at the instant of failure: the
	// drive's volatile write cache and the in-flight sector die with the
	// kernel, before any recovery step runs. The dead kernel's dirty
	// page-cache pages are captured now — whatever resurrection does not
	// flush later becomes the model's orphan set.
	var deadDirty []disk.DirtyPage
	if m.diskModel != nil {
		if _, derr := m.diskModel.CrashNow(); derr != nil {
			return nil, fmt.Errorf("core: disk crash model: %w", derr)
		}
		deadDirty = m.K.DirtyPages()
	}
	// Salvage the dead kernel's flight recorder first, before any recovery
	// step can disturb the bytes; a failed transfer then still leaves
	// post-mortem context behind.
	img := m.slots[m.imageSlot]
	ring, index, seg := m.tailRegion(img, tailRing), m.tailRegion(img, tailIndex), m.tailRegion(img, tailMetrics)
	if ring.Frames > 0 {
		out.Trace = trace.Parse(m.HW.Mem, ring)
	}
	if seg.Frames > 0 {
		out.DeadMetrics = metrics.ParseSegment(m.HW.Mem, seg)
	}
	out.Transfer = m.K.AttemptTransfer()
	if !out.Transfer.OK {
		// No crash kernel will ever flush these pages: every dirty page is
		// an orphan for the drive to drain (or lose) on its own.
		m.finishDiskCrash(out, deadDirty, nil)
		out.Result = ResultSystemDown
		m.LastOutcome = out
		return out, nil
	}

	// The transfer stub removes the hardware protection from the crash
	// kernel image and jumps to its entry point (Section 3.2). Only the
	// image part of the slot is released: the flight-recorder tail keeps
	// its FrameReserved tag so nothing recycles the dead kernel's ring
	// before resurrection has read it.
	imgPart := m.imageRegion(img)
	for f := imgPart.Start; f < imgPart.End(); f++ {
		_ = m.HW.Mem.Protect(f, false)          //owvet:allow errdrop: slot regions are validated at machine construction
		_ = m.HW.Mem.SetKind(f, phys.FrameFree) //owvet:allow errdrop: same validated frame as the line above
	}
	m.HW.ResetCPUs()

	// Boot the crash kernel inside the reservation, swapping to the
	// other partition so the dead kernel's swapped pages stay readable.
	m.swapIdx = 1 - m.swapIdx
	params := m.kernelParams()
	params.FastBoot = m.opts.FastCrashBoot
	crashK, err := kernel.Boot(m.HW, m.FS, params, kernel.BootOptions{
		Region:        imgPart,
		BootCount:     m.K.Globals.BootCount, // morphing increments it
		IsCrashKernel: true,
	})
	if err != nil {
		// The crash kernel image failed to initialize; the system is
		// down. (With an intact protected image this does not happen —
		// the paper observed 100% crash-kernel boot success.)
		m.finishDiskCrash(out, deadDirty, nil)
		out.Result = ResultSystemDown
		out.Transfer.OK = false
		out.Transfer.Reason = "crash kernel initialization failed: " + err.Error()
		m.LastOutcome = out
		return out, nil
	}
	crashK.Disk = m.diskModel
	crashK.Metrics = m.metrics

	// Crash-kernel-specific startup work and the shared init scripts
	// (Section 3.2: same scripts, same mounts, the other swap partition).
	// The fast-boot optimization pre-executed the extra work at image
	// install time (Section 7).
	if m.opts.FastCrashBoot {
		m.HW.Clock.Advance(m.cost.InitScripts)
	} else {
		m.HW.Clock.Advance(m.cost.CrashExtra + m.cost.InitScripts)
	}

	// Grant the crash kernel working memory for resurrection copies: all
	// currently-free frames outside the dead kernel's footprint and
	// outside the alternate slot, which must stay clear for the next
	// crash image (the "extra page descriptors" of Section 3.2).
	nextSlot := m.slots[1-m.imageSlot]
	crashK.Alloc.AddFreeFrames(m.HW.Mem, phys.Region{Start: 0, Frames: nextSlot.Start})

	engine := resurrect.NewEngine(crashK, kernel.GlobalsAddr, m.opts.VerifyCRC)
	engine.MapPages = m.opts.MapPagesResurrection
	engine.ResurrectIPC = m.opts.ResurrectIPC
	engine.LazyInstall = m.opts.LazyInstall
	engine.TraceRegion = ring
	engine.IndexRegion = index
	engine.Metrics = m.metrics
	out.Report = engine.Run(m.opts.Resurrection)

	// Dirty pages resurrection did not flush are orphans: the drive drains
	// them in its own (seeded) order, or loses them outright.
	m.finishDiskCrash(out, deadDirty, out.Report)

	// Morph (Section 3.6): reclaim all memory, reserve the other slot,
	// load a fresh crash image, become the main kernel. The new slot is
	// split like the old one: protected image plus the planes' tail.
	if err := crashK.AdoptAllMemory(); err != nil {
		return nil, fmt.Errorf("core: morph: %w", err)
	}
	m.imageSlot = 1 - m.imageSlot
	nextImg := m.imageRegion(nextSlot)
	for f := nextImg.Start; f < nextImg.End(); f++ {
		if err := crashK.Alloc.Claim(f, phys.FrameCrashImage); err != nil {
			return nil, fmt.Errorf("core: reserve next crash slot: %w", err)
		}
	}
	crashK.P.CrashRegion = nextImg
	if err := crashK.LoadCrashImage(); err != nil {
		return nil, fmt.Errorf("core: load fresh crash image: %w", err)
	}
	if err := m.attachTail(crashK, crashK.Alloc); err != nil {
		return nil, err
	}
	if out.DiskCrash != nil && crashK.Tracer != nil {
		crashK.Tracer.Record(trace.Event{
			Kind: trace.KindDiskCrash,
			A:    uint64(out.DiskCrash.RolledBack),
			B:    uint64(out.DiskCrash.OrphanFlushed),
			Note: out.DiskCrash.Note(),
		})
	}

	// Sockets died with the main kernel: drop undelivered inbound data.
	// (The first post-morph metrics flush runs below, after m.K and the
	// reboot count are updated, so it already reflects them.)
	m.Net.FlushInbound()

	m.K = crashK
	m.Reboots++
	out.Result = ResultRecovered
	out.Interruption = m.HW.Clock.Since(started)
	if out.Report != nil {
		// Correct the live (parallel-schedule) outage to the serial model:
		// only the resurrection pass is parallel, so the difference is
		// exactly the pass's serial sum minus its live schedule.
		out.SerialInterruption = out.Interruption - out.Report.Parallel.Duration + out.Report.Duration
	} else {
		out.SerialInterruption = out.Interruption
	}
	m.LastOutcome = out
	m.FlushMetrics()
	return out, nil
}

// finishDiskCrash runs the crash model's orphan flush for one handled
// failure: the dead kernel's dirty pages minus whatever the resurrection
// pass flushed (identified by the install's FlushedPages handoff), in
// original capture order. The resulting report lands on the outcome and in
// the disk_crash_* metrics.
func (m *Machine) finishDiskCrash(out *FailureOutcome, dirty []disk.DirtyPage, rep *resurrect.Report) {
	if m.diskModel == nil {
		return
	}
	orphans := dirty
	if rep != nil {
		flushed := make(map[resurrect.FlushedPage]struct{})
		for _, p := range rep.Procs {
			for _, fp := range p.FlushedPages {
				flushed[fp] = struct{}{}
			}
		}
		if len(flushed) > 0 {
			orphans = orphans[:0:0]
			for _, dp := range dirty {
				if _, ok := flushed[resurrect.FlushedPage{Path: dp.Path, Off: dp.Off}]; !ok {
					orphans = append(orphans, dp)
				}
			}
		}
	}
	crep, derr := m.diskModel.OrphanFlush(orphans)
	if derr != nil {
		crep.Err = derr.Error()
	}
	out.DiskCrash = &crep
	m.recordDiskMetrics(crep)
}

// recordDiskMetrics publishes one crash report to the metrics plane.
func (m *Machine) recordDiskMetrics(rep disk.CrashReport) {
	if m.metrics == nil {
		return
	}
	m.metrics.Counter("disk_crash_events_total", "block-layer crash model firings", nil).Add(1)
	m.metrics.Counter("disk_crash_rollback_writes_total", "acked writes lost to write-cache rollback", nil).Add(int64(rep.RolledBack))
	m.metrics.Counter("disk_crash_rollback_bytes_total", "payload bytes lost to write-cache rollback", nil).Add(rep.RolledBackBytes)
	if rep.Torn {
		m.metrics.Counter("disk_crash_torn_writes_total", "in-flight sector writes torn at crash", nil).Add(1)
	}
	m.metrics.Counter("disk_crash_orphan_pages_total", "orphaned dirty pages the drive flushed on its own", nil).Add(int64(rep.OrphanFlushed))
	m.metrics.Counter("disk_crash_orphan_bytes_total", "bytes of orphaned dirty pages the drive flushed", nil).Add(rep.OrphanBytes)
	m.metrics.Counter("disk_crash_orphan_lost_total", "orphaned dirty pages lost outright", nil).Add(int64(rep.OrphanTotal - rep.OrphanFlushed))
}

// CrashDiskForReboot applies the block-layer crash consequences for a
// failure the baseline (no-Otherworld) world handles with a cold reboot:
// no crash kernel will ever flush the page cache, so every dirty page is
// an orphan. Call it on the failed kernel before ColdReboot. Returns nil
// when the model is off.
func (m *Machine) CrashDiskForReboot() (*disk.CrashReport, error) {
	if m.diskModel == nil {
		return nil, nil
	}
	if _, err := m.diskModel.CrashNow(); err != nil {
		return nil, fmt.Errorf("core: disk crash model: %w", err)
	}
	rep, err := m.diskModel.OrphanFlush(m.K.DirtyPages())
	if err != nil {
		rep.Err = err.Error()
	}
	m.recordDiskMetrics(rep)
	return &rep, nil
}

// ColdReboot recovers a machine whose transfer failed: the full reboot the
// paper's baseline world always performs. All volatile state is lost; the
// file system survives.
func (m *Machine) ColdReboot() error {
	m.HW.Clock.Advance(m.cost.BIOS + m.cost.BootLoader)
	m.HW.ResetCPUs()
	m.HW.TLB.Flush()
	// Wipe frame state: a reboot reinitializes memory ownership.
	for f := 0; f < m.HW.Mem.NumFrames(); f++ {
		_ = m.HW.Mem.Protect(f, false)          //owvet:allow errdrop: f ranges over NumFrames, so the call cannot fail
		_ = m.HW.Mem.SetKind(f, phys.FrameFree) //owvet:allow errdrop: same in-range frame as the line above
	}
	m.imageSlot = 1
	m.swapIdx = 0
	k, err := kernel.Boot(m.HW, m.FS, m.kernelParams(), kernel.BootOptions{
		Region: phys.Region{Start: 0, Frames: m.slots[m.imageSlot].Start},
	})
	if err != nil {
		return fmt.Errorf("core: cold reboot: %w", err)
	}
	k.Disk = m.diskModel
	k.Metrics = m.metrics
	m.K = k
	m.HW.Clock.Advance(m.cost.InitScripts)
	m.Net.FlushInbound()
	if err := k.LoadCrashImage(); err != nil {
		return err
	}
	if err := m.attachTail(k, nil); err != nil {
		return err
	}
	m.FlushMetrics()
	return nil
}

// Cost exposes the virtual-time model for experiment harnesses.
func (m *Machine) Cost() sim.CostModel { return m.cost }
