package core

import (
	"math"
	"runtime"
	"testing"

	"otherworld/internal/disk"
	"otherworld/internal/phys"
)

// bookkeepingSink keeps what a measured run builds on the heap.
var bookkeepingSink any

// leastAllocated prepares and runs an operation three times and returns
// the fewest bytes a run allocated, leaving out what prepare allocates.
func leastAllocated(prepare func() (run func())) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		run := prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestBookkeepingScalesWithUse bounds the host memory a 256 MiB machine's
// boot bookkeeping, crash-kernel grant and morph allocate: each must cost
// in proportion to the frames or blocks in use, not to RAM or disk size.
func TestBookkeepingScalesWithUse(t *testing.T) {
	const frames = 256 << 20 / phys.PageSize
	slot := phys.Region{Start: frames - 2048, Frames: 2048}
	t.Run("allocator boot", func(t *testing.T) {
		mem := phys.NewMem(frames * phys.PageSize)
		got := leastAllocated(func() func() {
			return func() { bookkeepingSink = phys.NewFrameAllocator(mem, phys.Region{Start: 0, Frames: frames}) }
		})
		if got > 20<<10 {
			t.Fatalf("NewFrameAllocator over 256 MiB allocated %d bytes, want at most 20 KiB", got)
		}
	})
	t.Run("crash grant and morph", func(t *testing.T) {
		got := leastAllocated(func() func() {
			// A dead main kernel that used 4000 frames and freed three
			// of them, and a crash kernel booted in its slot.
			mem := phys.NewMem(frames * phys.PageSize)
			dead := phys.NewFrameAllocator(mem, phys.Region{Start: 0, Frames: slot.Start})
			if _, err := dead.AllocN(4000, phys.FrameUser); err != nil {
				t.Fatal(err)
			}
			for _, f := range []int{100, 2000, 3999} {
				dead.Free(f)
			}
			crash := phys.NewFrameAllocator(mem, slot)
			return func() {
				crash.AddFreeFrames(phys.Region{Start: 0, Frames: slot.Start - slot.Frames})
				crash.AdoptUnmanaged(phys.Region{Start: 0, Frames: frames})
			}
		})
		if got > 1<<10 {
			t.Fatalf("the crash grant and the morph allocated %d bytes, want at most 1 KiB", got)
		}
	})
	t.Run("unwritten swap partition", func(t *testing.T) {
		got := leastAllocated(func() func() {
			return func() { bookkeepingSink = disk.NewSwapDevice(newSwapPartition("/dev/swap0", 16384)) }
		})
		if got > 1<<10 {
			t.Fatalf("an unwritten 16384-block swap partition allocated %d bytes, want at most 1 KiB", got)
		}
	})
}
