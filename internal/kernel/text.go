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
	// pattern generates every text frame from expected
	// (phys.Mem.Generate), so memory stores none of the text until
	// something writes it, and then only the sectors written. Only NewText
	// generates with it, so a sector that stops being generated by it
	// never is again.
	pattern *phys.Pattern
	// pristine holds the expected bytes of each text frame CheckExecute
	// found written, built the first time it is needed; a frame the
	// pattern still generates whole reads as expected and needs none.
	pristine [TextFrames]*[phys.PageSize]byte
	// live receives CheckExecute's copies of the written sectors of a
	// function, at their offsets from the function's first frame on; it
	// is made on first use, liveLen long.
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

// longestFunc is the largest function footprint.
var longestFunc = slices.Max(funcSizes[:])

// liveLen is the length of live: the most frames a function can touch,
// one more than its length fills when it starts inside a frame.
var liveLen = ((longestFunc+phys.PageSize-1)/phys.PageSize + 1) * phys.PageSize

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
// frames) and fills them with the deterministic pattern: each frame is
// generated from expected, written and counted as a WriteAt of its bytes
// but storing none of them.
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
	t.pattern = phys.NewPattern(t.expected)
	for f := start; f < start+TextFrames; f++ {
		if err := alloc.Claim(f, phys.FrameKernelText); err != nil {
			return nil, err
		}
		if err := mem.Generate(f, 0, t.pattern); err != nil {
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

// pristinePage returns text frame f's expected bytes, building them the
// first time they are needed.
func (t *Text) pristinePage(f int) *[phys.PageSize]byte {
	i := f - phys.FrameOf(t.base)
	if t.pristine[i] == nil {
		page := new([phys.PageSize]byte)
		addr := phys.FrameAddr(f)
		for j := range page {
			page[j] = t.expected(addr + uint64(j))
		}
		t.pristine[i] = page
	}
	return t.pristine[i]
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
//   - one counted read of the whole function per call: Mem.ReadGenerated,
//     which counts it whether or not the text pattern still generates
//     every sector of the function; the function's bytes in the sectors
//     that were written are then copied with the uncounted CopyFrame;
//   - corrupted bytes are visited in ascending address order, with one
//     rollFn draw for each not yet in decided, stopping at the first that
//     does not behave benignly — whose behaviour is returned;
//   - a decided entry whose byte reads pristine again (repaired or rolled
//     back) is forgotten only if it lies before the byte that stopped the
//     walk: an early return leaves later repaired entries in place.
func (t *Text) CheckExecute(fn FuncID, rollFn func() float64) Misbehavior {
	f := t.funcs[fn]
	lo, hi := t.base+uint64(f.Start), t.base+uint64(f.Start+f.Len)
	if t.mem.ReadGenerated(lo, f.Len, t.pattern) {
		// No sector of the function was written since NewText, so no byte
		// differs: no draw is due, and no decided entry lies in it.
		return BehaveBenign
	}
	// Only a written sector can differ, and only there can a decided entry
	// lie. The function's bytes in each are copied into live, which starts
	// at the function's first frame, and compared with the frame's
	// pristine page.
	if t.live == nil {
		t.live = make([]byte, liveLen)
	}
	base := phys.FrameAddr(phys.FrameOf(lo))
	result, stop := BehaveBenign, hi
	for fr := phys.FrameOf(lo); phys.FrameAddr(fr) < stop; fr++ {
		generated := t.mem.Generated(fr, t.pattern)
		if generated == phys.AllSectors {
			continue
		}
		frameAddr := phys.FrameAddr(fr)
		// The function's bytes in this frame run from offset from to to.
		from, to := int(max(lo, frameAddr)-frameAddr), int(min(hi, frameAddr+phys.PageSize)-frameAddr)
		page, pristine := t.live[frameAddr-base:][:to], t.pristinePage(fr)[:to]
		for s := from / phys.SectorSize; s*phys.SectorSize < to && frameAddr+uint64(s*phys.SectorSize) < stop; s++ {
			if generated&(1<<s) != 0 {
				continue
			}
			// The function's bytes in this sector run from a to b.
			a, b := max(from, s*phys.SectorSize), min(to, (s+1)*phys.SectorSize)
			if err := t.mem.CopyFrame(fr, a, page[a:b]); err != nil {
				return BehaveFailStop
			}
			live, want := page[:b], pristine[:b]
			for i := nextDiff(live, want, a); i < b; i = nextDiff(live, want, i+1) {
				addr := frameAddr + uint64(i)
				behave, ok := t.decided[addr]
				if !ok {
					behave = t.decideBehavior(rollFn())
					if t.decided == nil {
						t.decided = make(map[uint64]Misbehavior)
					}
					t.decided[addr] = behave
				}
				if behave != BehaveBenign {
					result, stop = behave, addr
					break
				}
			}
		}
	}
	for addr := range t.decided {
		if addr >= lo && addr < stop && t.live[addr-base] == t.expected(addr) {
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
