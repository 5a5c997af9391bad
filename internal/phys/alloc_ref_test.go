package phys

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// referenceAllocator is the frame allocator the run stack replaced, kept as
// the model FuzzFrameAllocOps replays every op on: a stack of frame
// numbers and one bool per frame for the set and the claims.
type referenceAllocator struct {
	mem     *Mem
	free    []int
	inSet   []bool
	claimed []bool
}

func newReferenceAllocator(mem *Mem, r Region) *referenceAllocator {
	a := &referenceAllocator{
		mem:     mem,
		inSet:   make([]bool, mem.NumFrames()),
		claimed: make([]bool, mem.NumFrames()),
	}
	a.AddRegion(r)
	return a
}

func (a *referenceAllocator) AddRegion(r Region) {
	for f := r.End() - 1; f >= r.Start; f-- {
		if !a.CanAdopt(f) {
			continue
		}
		a.inSet[f] = true
		a.free = append(a.free, f)
	}
}

func (a *referenceAllocator) Alloc(k FrameKind) (int, error) {
	for len(a.free) > 0 {
		f := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		if a.claimed[f] {
			continue
		}
		a.claimed[f] = true
		if err := a.mem.Zero(f); err != nil {
			return 0, err
		}
		if err := a.mem.SetKind(f, k); err != nil {
			return 0, err
		}
		return f, nil
	}
	return 0, ErrNoFrames
}

func (a *referenceAllocator) Free(f int) {
	if f < 0 || f >= len(a.claimed) || !a.claimed[f] {
		return
	}
	a.claimed[f] = false
	_ = a.mem.SetKind(f, FrameFree)
	a.free = append(a.free, f)
}

func (a *referenceAllocator) Claim(f int, k FrameKind) error {
	if !a.Manages(f) {
		return fmt.Errorf("phys: frame %d not managed by allocator", f)
	}
	if a.claimed[f] {
		return fmt.Errorf("phys: frame %d already claimed", f)
	}
	a.claimed[f] = true
	return a.mem.SetKind(f, k)
}

func (a *referenceAllocator) AddFreeFrames(r Region) int {
	added := 0
	for f := r.End() - 1; f >= r.Start; f-- {
		if !a.CanAdopt(f) || a.mem.Kind(f) != FrameFree {
			continue
		}
		a.inSet[f] = true
		a.free = append(a.free, f)
		added++
	}
	return added
}

func (a *referenceAllocator) AdoptUnmanaged(r Region) int {
	adopted := 0
	for f := r.End() - 1; f >= r.Start; f-- {
		if !a.CanAdopt(f) {
			continue
		}
		_ = a.mem.Protect(f, false)
		_ = a.mem.SetKind(f, FrameFree)
		a.inSet[f] = true
		a.free = append(a.free, f)
		adopted++
	}
	return adopted
}

func (a *referenceAllocator) AdoptFrame(f int, k FrameKind) error {
	if f < 0 || f >= a.mem.NumFrames() {
		return ErrOutOfRange
	}
	if a.inSet[f] {
		return fmt.Errorf("phys: frame %d already managed", f)
	}
	a.inSet[f] = true
	a.claimed[f] = true
	return a.mem.SetKind(f, k)
}

func (a *referenceAllocator) CanAdopt(f int) bool {
	return f >= 0 && f < a.mem.NumFrames() && !a.inSet[f]
}

func (a *referenceAllocator) Manages(f int) bool {
	return f >= 0 && f < len(a.inSet) && a.inSet[f]
}

// distinctFree counts the frames on the free stack that are not claimed,
// each once however often it is on the stack.
func (a *referenceAllocator) distinctFree() int {
	seen := make(map[int]bool)
	for _, f := range a.free {
		if !a.claimed[f] {
			seen[f] = true
		}
	}
	return len(seen)
}

// Allocator fuzz ops: one code byte and two argument bytes each.
const (
	allocOpAlloc = iota
	allocOpFree
	allocOpClaim
	allocOpAddRegion
	allocOpAddFreeFrames
	allocOpAdoptUnmanaged
	allocOpAdoptFrame
	allocOpSetKind
	allocOpProtect
	allocOpCount
)

const allocOpSize = 3

// allocFuzzMaxFrames keeps memories small but past two bitset words.
const allocFuzzMaxFrames = 150

// decodeAllocOps reads the memory size and the initial region from the
// first three bytes and ops from the rest.
func decodeAllocOps(data []byte) (frames int, boot Region, ops [][allocOpSize]byte) {
	if len(data) < 3 {
		return 1, Region{}, nil
	}
	frames = 1 + int(data[0])%allocFuzzMaxFrames
	boot = fuzzRegion(frames, data[1], data[2])
	for data = data[3:]; len(data) >= allocOpSize; data = data[allocOpSize:] {
		ops = append(ops, [allocOpSize]byte(data))
	}
	return frames, boot, ops
}

// fuzzFrame maps a byte to a frame number from -1 to frames.
func fuzzFrame(frames int, b byte) int { return int(b)%(frames+2) - 1 }

// fuzzRegion maps two bytes to a region that may start at -1 and end past
// memory, or be empty.
func fuzzRegion(frames int, start, n byte) Region {
	return Region{Start: fuzzFrame(frames, start), Frames: int(n)%(frames+3) - 1}
}

func fuzzKind(b byte) FrameKind { return FrameKind(b % uint8(len(frameKindNames))) }

func encodeAllocOp(code int, a, b byte) []byte { return []byte{byte(code), a, b} }

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// replayAllocOps runs ops on a FrameAllocator and on the reference, each
// over its own memory, and fails at the first op after which they differ.
func replayAllocOps(t *testing.T, frames int, boot Region, ops [][allocOpSize]byte) {
	t.Helper()
	mem, refMem := NewMem(frames*PageSize), NewMem(frames*PageSize)
	a, ref := NewFrameAllocator(mem, boot), newReferenceAllocator(refMem, boot)
	check := func(i int, what string, got, want any) {
		t.Helper()
		if got != want {
			t.Fatalf("op %d (%s): got %v, want %v", i, what, got, want)
		}
	}
	for i, op := range ops {
		f, k := fuzzFrame(frames, op[1]), fuzzKind(op[2])
		r := fuzzRegion(frames, op[1], op[2])
		var what string
		switch int(op[0]) % allocOpCount {
		case allocOpAlloc:
			what = "Alloc"
			g, gerr := a.Alloc(k)
			w, werr := ref.Alloc(k)
			check(i, what, g, w)
			check(i, what, errText(gerr), errText(werr))
		case allocOpFree:
			what = "Free"
			a.Free(f)
			ref.Free(f)
		case allocOpClaim:
			what = "Claim"
			check(i, what, errText(a.Claim(f, k)), errText(ref.Claim(f, k)))
		case allocOpAddRegion:
			what = "AddRegion"
			a.AddRegion(r)
			ref.AddRegion(r)
		case allocOpAddFreeFrames:
			what = "AddFreeFrames"
			check(i, what, a.AddFreeFrames(r), ref.AddFreeFrames(r))
		case allocOpAdoptUnmanaged:
			what = "AdoptUnmanaged"
			check(i, what, a.AdoptUnmanaged(r), ref.AdoptUnmanaged(r))
		case allocOpAdoptFrame:
			what = "AdoptFrame"
			check(i, what, errText(a.AdoptFrame(f, k)), errText(ref.AdoptFrame(f, k)))
		case allocOpSetKind:
			what = "SetKind"
			check(i, what, errText(mem.SetKind(f, k)), errText(refMem.SetKind(f, k)))
		case allocOpProtect:
			what = "Protect"
			on := op[2]%2 == 1
			check(i, what, errText(mem.Protect(f, on)), errText(refMem.Protect(f, on)))
		}
		for g := -1; g <= frames; g++ {
			if a.Manages(g) != ref.Manages(g) || a.CanAdopt(g) != ref.CanAdopt(g) ||
				mem.Kind(g) != refMem.Kind(g) || mem.Protected(g) != refMem.Protected(g) {
				t.Fatalf("op %d (%s): frame %d: Manages %v/%v CanAdopt %v/%v Kind %v/%v Protected %v/%v",
					i, what, g, a.Manages(g), ref.Manages(g), a.CanAdopt(g), ref.CanAdopt(g),
					mem.Kind(g), refMem.Kind(g), mem.Protected(g), refMem.Protected(g))
			}
		}
		check(i, what+": FreeFrames", a.FreeFrames(), ref.distinctFree())
		check(i, what+": Stats", mem.Stats(), refMem.Stats())
	}
	// Drain both: every remaining frame comes out in the same order.
	for i := len(ops); ; i++ {
		g, gerr := a.Alloc(FrameUser)
		w, werr := ref.Alloc(FrameUser)
		check(i, "drain Alloc", g, w)
		check(i, "drain Alloc", errText(gerr), errText(werr))
		if errors.Is(werr, ErrNoFrames) {
			break
		}
	}
}

// FuzzFrameAllocOps replays a random op sequence on the FrameAllocator and
// on the stack-of-ints reference it replaced: results, errors, kinds,
// protection, Manages, CanAdopt, FreeFrames and memory traffic must agree
// after every op, and draining both must hand out the same frames.
func FuzzFrameAllocOps(f *testing.F) {
	seq := func(frames byte, boot Region, ops ...[]byte) []byte {
		head := []byte{frames - 1, byte(boot.Start + 1), byte(boot.Frames + 1)}
		return append(head, bytes.Join(ops, nil)...)
	}
	frameArg := func(f int) byte { return byte(f + 1) }
	// A boot region with fixed claims, allocations and frees in and out of
	// order, double claims and a frame claimed while free then freed, so it
	// sits on the stack twice.
	f.Add(seq(16, Region{Start: 2, Frames: 12},
		encodeAllocOp(allocOpClaim, frameArg(2), 1),
		encodeAllocOp(allocOpClaim, frameArg(5), 2),
		encodeAllocOp(allocOpClaim, frameArg(5), 2),
		encodeAllocOp(allocOpAlloc, 0, 5),
		encodeAllocOp(allocOpAlloc, 0, 5),
		encodeAllocOp(allocOpFree, frameArg(3), 0),
		encodeAllocOp(allocOpFree, frameArg(5), 0),
		encodeAllocOp(allocOpFree, frameArg(5), 0),
		encodeAllocOp(allocOpAlloc, 0, 3),
		encodeAllocOp(allocOpFree, frameArg(-1), 0),
		encodeAllocOp(allocOpFree, frameArg(16), 0),
		encodeAllocOp(allocOpClaim, frameArg(16), 1),
		encodeAllocOp(allocOpAlloc, 0, 5),
		encodeAllocOp(allocOpAlloc, 0, 5),
	))
	// A crash kernel's life: a small reserved region, the grant of the
	// dead kernel's free-tagged frames, an adopted frame, protection
	// over a free frame, then the morph over all of memory.
	f.Add(seq(100, Region{Start: 80, Frames: 20},
		encodeAllocOp(allocOpSetKind, frameArg(10), byte(FrameKernelHeap)),
		encodeAllocOp(allocOpSetKind, frameArg(11), byte(FrameUser)),
		encodeAllocOp(allocOpSetKind, frameArg(40), byte(FramePageTable)),
		encodeAllocOp(allocOpProtect, frameArg(41), 1),
		encodeAllocOp(allocOpAddFreeFrames, frameArg(0), 80+1),
		encodeAllocOp(allocOpAdoptFrame, frameArg(11), byte(FrameSpeculated)),
		encodeAllocOp(allocOpAdoptFrame, frameArg(11), byte(FrameSpeculated)),
		encodeAllocOp(allocOpAdoptFrame, frameArg(100), byte(FrameSpeculated)),
		encodeAllocOp(allocOpAlloc, 0, 4),
		encodeAllocOp(allocOpAdoptUnmanaged, frameArg(0), 100+1),
		encodeAllocOp(allocOpClaim, frameArg(0), 1),
		encodeAllocOp(allocOpFree, frameArg(11), 0),
		encodeAllocOp(allocOpAlloc, 0, 5),
		encodeAllocOp(allocOpAlloc, 0, 5),
	))
	// Regions that start before memory and end past it, empty regions,
	// and an Alloc that hits a protected free frame.
	f.Add(seq(70, Region{Start: -1, Frames: 5},
		encodeAllocOp(allocOpAddRegion, frameArg(60), 20+1),
		encodeAllocOp(allocOpAddRegion, frameArg(-1), 0),
		encodeAllocOp(allocOpProtect, frameArg(0), 1),
		encodeAllocOp(allocOpAlloc, 0, 2),
		encodeAllocOp(allocOpAlloc, 0, 2),
		encodeAllocOp(allocOpAdoptUnmanaged, frameArg(62), 3),
		encodeAllocOp(allocOpAddFreeFrames, frameArg(-1), 72),
	))
	// A bitset-straddling memory under a seeded mix of every op.
	rng := rand.New(rand.NewSource(150))
	mixed := make([]byte, allocOpSize*500)
	rng.Read(mixed)
	f.Add(seq(allocFuzzMaxFrames, Region{Start: 3, Frames: 140}, mixed))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, boot, ops := decodeAllocOps(data)
		replayAllocOps(t, frames, boot, ops)
	})
}
