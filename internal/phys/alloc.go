package phys

import (
	"errors"
	"fmt"
)

// ErrNoFrames is returned when an allocation cannot be satisfied.
var ErrNoFrames = errors.New("phys: out of physical frames")

// Region describes a contiguous range of physical frames.
type Region struct {
	// Start is the first frame of the region.
	Start int
	// Frames is the region length in frames.
	Frames int
}

// Bytes returns the region size in bytes.
func (r Region) Bytes() int { return r.Frames * PageSize }

// End returns the first frame past the region.
func (r Region) End() int { return r.Start + r.Frames }

// Contains reports whether frame f lies inside the region.
func (r Region) Contains(f int) bool { return f >= r.Start && f < r.End() }

// ContainsAddr reports whether physical address a lies inside the region.
func (r Region) ContainsAddr(a uint64) bool { return r.Contains(FrameOf(a)) }

func (r Region) String() string {
	return fmt.Sprintf("frames [%d,%d) (%d KiB)", r.Start, r.End(), r.Bytes()/1024)
}

// FrameAllocator hands out physical frames from a set of regions. Both
// kernels use one: the main kernel over all memory minus the crash-kernel
// reservation, and the crash kernel first over only its reserved region and
// then — after resurrection completes and it morphs into the main kernel —
// over everything (Section 3.6). AddRegion implements that late widening,
// mirroring the paper's startup-code change that pre-allocates extra page
// descriptors for memory the crash kernel will only own later.
type FrameAllocator struct {
	mem  *Mem
	free []int // stack of free frame numbers
	// inSet and claimed are indexed by frame number and cover every frame
	// of mem; a frame outside [0, mem.NumFrames()) is never in either.
	inSet   []bool
	claimed []bool
}

// NewFrameAllocator creates an allocator over mem managing the given region.
func NewFrameAllocator(mem *Mem, r Region) *FrameAllocator {
	a := &FrameAllocator{
		mem:     mem,
		inSet:   make([]bool, mem.NumFrames()),
		claimed: make([]bool, mem.NumFrames()),
	}
	a.AddRegion(r)
	return a
}

// AddRegion makes the frames of r available for allocation. Frames already
// managed are ignored.
func (a *FrameAllocator) AddRegion(r Region) {
	for f := r.End() - 1; f >= r.Start; f-- {
		if !a.CanAdopt(f) {
			continue
		}
		a.inSet[f] = true
		a.free = append(a.free, f)
	}
}

// Alloc returns a zeroed frame tagged with kind k.
func (a *FrameAllocator) Alloc(k FrameKind) (int, error) {
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

// AllocN allocates n frames, returning them in order. On failure any frames
// already obtained are released.
func (a *FrameAllocator) AllocN(n int, k FrameKind) ([]int, error) {
	frames := make([]int, 0, n)
	for i := 0; i < n; i++ {
		f, err := a.Alloc(k)
		if err != nil {
			for _, g := range frames {
				a.Free(g)
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// Free returns frame f to the allocator. Freeing an unclaimed or unmanaged
// frame is a no-op, which keeps teardown code simple.
func (a *FrameAllocator) Free(f int) {
	if f < 0 || f >= len(a.claimed) || !a.claimed[f] {
		return
	}
	a.claimed[f] = false
	//owvet:allow errdrop: f was in claimed, so it is inside the managed frame set
	_ = a.mem.SetKind(f, FrameFree)
	a.free = append(a.free, f)
}

// Claim marks a specific frame as allocated with kind k, used when a kernel
// takes ownership of frames at fixed addresses (the globals anchor page,
// kernel text). It fails if the frame is outside the managed set or already
// claimed.
func (a *FrameAllocator) Claim(f int, k FrameKind) error {
	if !a.Manages(f) {
		return fmt.Errorf("phys: frame %d not managed by allocator", f)
	}
	if a.claimed[f] {
		return fmt.Errorf("phys: frame %d already claimed", f)
	}
	a.claimed[f] = true
	return a.mem.SetKind(f, k)
}

// AddFreeFrames makes only the currently-free-tagged frames of r available,
// leaving frames another owner still uses untouched. The crash kernel uses
// it to obtain working memory for resurrection copies without clobbering
// the dead kernel's state (the paper's pre-allocated "extra page
// descriptors", Section 3.2).
func (a *FrameAllocator) AddFreeFrames(r Region) int {
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

// AdoptUnmanaged takes ownership of every frame in r the allocator does not
// already manage, resetting its tag and write protection — the morph step
// where the crash kernel reclaims the dead main kernel's memory
// (Section 3.6). It returns the number of frames adopted.
func (a *FrameAllocator) AdoptUnmanaged(r Region) int {
	adopted := 0
	for f := r.End() - 1; f >= r.Start; f-- {
		if !a.CanAdopt(f) {
			continue
		}
		_ = a.mem.Protect(f, false)     //owvet:allow errdrop: CanAdopt bounds-checked f against mem.NumFrames
		_ = a.mem.SetKind(f, FrameFree) //owvet:allow errdrop: same bounds-checked frame as the line above
		a.inSet[f] = true
		a.free = append(a.free, f)
		adopted++
	}
	return adopted
}

// AdoptFrame takes ownership of a specific unmanaged frame as an already-
// claimed allocation tagged k. The crash kernel's map-pages resurrection
// fast path (the paper's footnote 3) uses it to keep a dead kernel's user
// page in place instead of copying it.
func (a *FrameAllocator) AdoptFrame(f int, k FrameKind) error {
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

// CanAdopt reports whether AdoptFrame(f, …) would succeed: f is an installed
// frame the allocator does not already manage. The lazy resurrection install
// validates every speculation candidate with it before committing to a
// copy-on-access mapping.
func (a *FrameAllocator) CanAdopt(f int) bool {
	return f >= 0 && f < a.mem.NumFrames() && !a.inSet[f]
}

// Manages reports whether frame f is part of the allocator's frame set.
func (a *FrameAllocator) Manages(f int) bool {
	return f >= 0 && f < len(a.inSet) && a.inSet[f]
}

// FreeFrames returns how many frames are currently allocatable.
func (a *FrameAllocator) FreeFrames() int {
	n := 0
	for _, f := range a.free {
		if !a.claimed[f] {
			n++
		}
	}
	return n
}
