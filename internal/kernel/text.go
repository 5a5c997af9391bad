package kernel

import (
	"bytes"
	"fmt"
	"slices"

	"otherworld/internal/phys"
)

// Text models the kernel's code region. The fault injector flips bytes here
// ("a single instruction, or instruction operand in the kernel code" — the
// Rio/Nooks injector the paper uses); corruption is *latent* until the
// kernel actually executes the affected function, at which point it
// manifests as one of the classic failure modes. Bytes in cold paths never
// execute, producing the ~20% of injection experiments that end with no
// kernel failure (Section 6).
//
// The text bytes are a deterministic pattern derived from the kernel seed,
// so corruption is detectable by comparison — the simulator's stand-in for
// "the CPU decoded a clobbered instruction", not a kernel integrity check.
//
// A Text is used by one goroutine at a time (its kernel's); decided and
// live are unsynchronized.
type Text struct {
	mem   *phys.Mem
	base  uint64
	size  int
	seed  int64
	funcs [funcCount]TextFunc
	// pristine is the text as NewText wrote it, all TextFrames pages in
	// one allocation, and pages are its page-sized parts. Each text frame
	// shares its page (phys.Mem.SharePage) until the frame is written, so
	// memory and the pristine copy are the same bytes; CheckExecute
	// compares the bytes it reads against pristine once a frame has been
	// written.
	pristine []byte
	pages    [TextFrames]*[phys.PageSize]byte
	// live receives CheckExecute's read of a function's bytes; it is made
	// on first use, as long as the largest function.
	live []byte
	// decided remembers the behaviour assigned to each corrupted byte the
	// first time it executes: a real clobbered instruction misbehaves the
	// same way every time it runs. It is made on first use.
	decided map[uint64]Misbehavior
}

// TextFunc is one kernel function's byte range within the text region.
type TextFunc struct {
	Name  string
	Start int // offset into the text region
	Len   int
}

// FuncID identifies a kernel function for execution accounting.
type FuncID int

// Kernel functions, in text-layout order.
const (
	FuncInterrupt    FuncID = iota // NMI/interrupt entry
	FuncTransferStub               // the ~100-line main→crash control transfer
	FuncPanic                      // panic/oops reporting path
	FuncSched                      // scheduler
	FuncSyscallEntry               // syscall gate
	FuncOpen                       // open/close path
	FuncReadWrite                  // read/write path
	FuncClone                      // process creation
	FuncMmap                       // memory mapping
	FuncPageFault                  // page-fault and demand-paging path
	FuncSwap                       // swap-out/swap-in path
	FuncTTY                        // terminal driver
	FuncIPC                        // pipes, sockets, shared memory
	funcCount
)

// Function footprint sizes in bytes, calibrated against the paper's
// observed rates: the workload-hot functions cover about a fifth of the
// text region, so roughly 20% of 30-fault experiments never manifest a
// kernel failure; the panic path and the ~100-line transfer stub are tiny,
// so "failure to boot the crash kernel" stays in Table 5's 2-3% band.
var funcSizes = [funcCount]int{
	FuncInterrupt:    4 << 10,
	FuncTransferStub: 256, // ~100 lines of hand-written transfer code
	FuncPanic:        256,
	FuncSched:        24 << 10,
	FuncSyscallEntry: 20 << 10,
	FuncOpen:         8 << 10,
	FuncReadWrite:    20 << 10,
	FuncClone:        4 << 10,
	FuncMmap:         6 << 10,
	FuncPageFault:    16 << 10,
	FuncSwap:         10 << 10,
	FuncTTY:          12 << 10,
	FuncIPC:          16 << 10,
}

// longestFunc is the largest function footprint, the length of live.
var longestFunc = slices.Max(funcSizes[:])

var funcNames = [funcCount]string{
	"interrupt", "transfer_stub", "panic", "sched", "syscall_entry",
	"open", "read_write", "clone", "mmap", "page_fault", "swap",
	"tty", "ipc",
}

// Misbehavior is how a clobbered instruction acts when executed. The mix
// follows the fault-characterization studies the paper cites ([3, 15, 22,
// 28]): most kernel faults are fail-stop.
type Misbehavior int

// Misbehavior kinds.
const (
	// BehaveBenign means the clobbered byte happens not to change
	// behaviour (e.g. an equivalent encoding).
	BehaveBenign Misbehavior = iota
	// BehaveFailStop is an immediate detected panic.
	BehaveFailStop
	// BehaveWildWriteStop performs a stray store and then panics.
	BehaveWildWriteStop
	// BehaveWildWriteSilent performs a stray store and keeps running —
	// the error-propagation case protection mode exists for.
	BehaveWildWriteSilent
	// BehaveHang wedges the kernel (recovered only by the watchdog NMI).
	BehaveHang
	// BehaveDoubleFault raises a double fault.
	BehaveDoubleFault
)

func (b Misbehavior) String() string {
	switch b {
	case BehaveBenign:
		return "benign"
	case BehaveFailStop:
		return "fail-stop"
	case BehaveWildWriteStop:
		return "wild-write+stop"
	case BehaveWildWriteSilent:
		return "wild-write-silent"
	case BehaveHang:
		return "hang"
	case BehaveDoubleFault:
		return "double-fault"
	}
	return fmt.Sprintf("Misbehavior(%d)", int(b))
}

// NewText claims TextFrames frames inside region (skipping the fixed anchor
// frames) and fills them with the deterministic pattern: each frame shares
// its page of the pristine copy, written and counted as a WriteAt of it.
func NewText(mem *phys.Mem, alloc *phys.FrameAllocator, region phys.Region, seed int64) (*Text, error) {
	start := region.Start
	if start < 3 {
		start = 3 // skip null, IDT and globals frames
	}
	if start+TextFrames > region.End() {
		return nil, fmt.Errorf("kernel: region %v too small for text", region)
	}
	t := &Text{
		mem:  mem,
		base: phys.FrameAddr(start),
		size: TextFrames * phys.PageSize,
		seed: seed,
	}
	off := 0
	for id := FuncID(0); id < funcCount; id++ {
		t.funcs[id] = TextFunc{Name: funcNames[id], Start: off, Len: funcSizes[id]}
		off += funcSizes[id]
	}
	if off > t.size {
		return nil, fmt.Errorf("kernel: text functions exceed region")
	}
	t.pristine = make([]byte, t.size)
	for i := range t.pages {
		if err := alloc.Claim(start+i, phys.FrameKernelText); err != nil {
			return nil, err
		}
		page := (*[phys.PageSize]byte)(t.pristine[i*phys.PageSize:])
		addr := phys.FrameAddr(start + i)
		for j := range page {
			page[j] = t.expected(addr + uint64(j))
		}
		t.pages[i] = page
		if err := mem.SharePage(start+i, page); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Base returns the physical address of the text region.
func (t *Text) Base() uint64 { return t.base }

// Size returns the text region size in bytes.
func (t *Text) Size() int { return t.size }

// Func returns the byte range of a kernel function.
func (t *Text) Func(id FuncID) TextFunc { return t.funcs[id] }

// expected is the pristine byte value at a text address.
func (t *Text) expected(addr uint64) byte {
	x := addr*0x9E3779B97F4A7C15 + uint64(t.seed)
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return byte(x)
}

// benignChance is the probability a clobbered, executed byte happens not to
// change behaviour. Together with the behaviour mix below it calibrates the
// per-fault manifestation rate.
const benignChance = 0.5

// decideBehavior rolls the manifestation for a newly executed corrupted
// byte. The mix reflects the fail-stop dominance the paper relies on
// ([3, 15, 22, 28]); the hang and double-fault shares are calibrated so the
// pre-hardening configuration loses about the 11% the paper reports (8%
// stalls/recursion + the double-fault handler problem).
func (t *Text) decideBehavior(roll float64) Misbehavior {
	switch {
	case roll < benignChance:
		return BehaveBenign
	case roll < benignChance+0.375:
		return BehaveFailStop
	case roll < benignChance+0.435:
		return BehaveWildWriteStop
	case roll < benignChance+0.465:
		return BehaveWildWriteSilent
	case roll < benignChance+0.4825:
		return BehaveHang
	default:
		return BehaveDoubleFault
	}
}

// CheckExecute scans fn's text for corrupted bytes and returns the resulting
// misbehaviour for this execution. rollFn supplies randomness so the caller
// (the kernel) keeps everything on one seeded stream.
//
// The contract the mid-flight injection model relies on (DESIGN §3, §10):
//   - one counted read of the whole function per call: Mem.ReadShared
//     while every frame of the function still shares its pristine page,
//     Mem.ReadAt otherwise;
//   - corrupted bytes are visited in ascending address order, with one
//     rollFn draw for each not yet in decided, stopping at the first that
//     does not behave benignly — whose behaviour is returned;
//   - a decided entry whose byte reads pristine again (repaired or rolled
//     back) is forgotten only if it lies before the byte that stopped the
//     walk: an early return leaves later repaired entries in place.
func (t *Text) CheckExecute(fn FuncID, rollFn func() float64) Misbehavior {
	f := t.funcs[fn]
	lo := t.base + uint64(f.Start)
	if t.mem.ReadShared(lo, f.Len, t.pages[f.Start/phys.PageSize:]) {
		// No frame of the function was written since NewText, so no byte
		// differs: no draw is due, and no decided entry lies in it, since
		// a frame that stops sharing its page never shares it again.
		return BehaveBenign
	}
	if len(t.live) < f.Len {
		t.live = make([]byte, longestFunc)
	}
	live := t.live[:f.Len]
	if err := t.mem.ReadAt(lo, live); err != nil {
		return BehaveFailStop
	}
	want := t.pristine[f.Start : f.Start+f.Len]
	result, stop := BehaveBenign, len(live)
	for i := nextDiff(live, want, 0); i < len(live); i = nextDiff(live, want, i+1) {
		addr := lo + uint64(i)
		behave, ok := t.decided[addr]
		if !ok {
			behave = t.decideBehavior(rollFn())
			if t.decided == nil {
				t.decided = make(map[uint64]Misbehavior)
			}
			t.decided[addr] = behave
		}
		if behave != BehaveBenign {
			result, stop = behave, i
			break
		}
	}
	for addr := range t.decided {
		if addr >= lo && addr < lo+uint64(stop) && live[addr-lo] == want[addr-lo] {
			delete(t.decided, addr) // repaired or rolled back
		}
	}
	return result
}

// nextDiff returns the first index at or after i where a and b differ, or
// len(a). An equal tail costs one bytes.Equal; otherwise equal 64-byte
// chunks are skipped before the differing chunk is walked byte by byte.
func nextDiff(a, b []byte, i int) int {
	if bytes.Equal(a[i:], b[i:]) {
		return len(a)
	}
	for ; ; i += 64 {
		end := min(i+64, len(a))
		if !bytes.Equal(a[i:end], b[i:end]) {
			break
		}
	}
	for a[i] == b[i] {
		i++
	}
	return i
}

// Settle downgrades every corrupted byte in fn currently decided as the
// given behaviour to benign: the instruction's one-time side effect (its
// stray store) has happened and re-executions change nothing new.
func (t *Text) Settle(fn FuncID, was Misbehavior) {
	f := t.funcs[fn]
	for addr, b := range t.decided {
		if b == was && addr >= t.base+uint64(f.Start) && addr < t.base+uint64(f.Start+f.Len) {
			t.decided[addr] = BehaveBenign
		}
	}
}

// Contains reports whether a physical address lies in the text region.
func (t *Text) Contains(addr uint64) bool {
	return addr >= t.base && addr < t.base+uint64(t.size)
}

// CorruptByte flips a text byte (the injector's instruction-corruption
// class). It returns the address written.
func (t *Text) CorruptByte(off int, delta byte) (uint64, error) {
	if off < 0 || off >= t.size {
		return 0, fmt.Errorf("kernel: text offset %d out of range", off)
	}
	addr := t.base + uint64(off)
	var b [1]byte
	if err := t.mem.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	if delta == 0 {
		delta = 1
	}
	b[0] += delta
	if err := t.mem.WriteAt(addr, b[:]); err != nil {
		return 0, err
	}
	return addr, nil
}
