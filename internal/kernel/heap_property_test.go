package kernel

import (
	"testing"
	"testing/quick"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// TestHeapAllocationsNeverOverlap drives random alloc/free sequences and
// checks that live allocations never share bytes — the invariant that keeps
// kernel records from silently clobbering each other.
func TestHeapAllocationsNeverOverlap(t *testing.T) {
	k := bootTestKernel(t, nil)
	type alloc struct {
		addr uint64
		size int
	}
	live := make(map[uint64]alloc)

	overlaps := func(a alloc) bool {
		for _, b := range live {
			if a.addr < b.addr+uint64(b.size) && b.addr < a.addr+uint64(a.size) {
				return true
			}
		}
		return false
	}

	f := func(ops []uint16) bool {
		for _, op := range ops {
			size := 1 + int(op%1000)
			if op%5 == 0 && len(live) > 0 {
				// Free an arbitrary live allocation.
				for addr, a := range live {
					k.Heap.Free(addr, a.size)
					delete(live, addr)
					break
				}
				continue
			}
			addr, err := k.Heap.Alloc(size)
			if err != nil {
				return false
			}
			a := alloc{addr: addr, size: size}
			if overlaps(a) {
				t.Logf("overlap at %#x+%d", addr, size)
				return false
			}
			if phys.FrameOf(addr) != phys.FrameOf(addr+uint64(size)-1) {
				t.Logf("allocation spans frames at %#x+%d", addr, size)
				return false
			}
			live[a.addr] = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordSlotsFitWorstCase: the fixed slot sizes must hold the largest
// records the kernel ever writes into them (longest paths, every pointer
// field set), or re-sealing would fail at runtime.
func TestRecordSlotsFitWorstCase(t *testing.T) {
	worstProc := layout.Proc{
		PID: ^uint32(0), State: layout.ProcSleeping,
		Name:      string(make([]byte, 64)),
		Program:   string(make([]byte, 64)),
		CrashProc: string(make([]byte, 64)),
		PageDir:   ^uint64(0), MemRegions: ^uint64(0), Files: ^uint64(0),
		KStack: ^uint64(0), Terminal: ^uint64(0), Signals: ^uint64(0),
		Shm: ^uint64(0), Pipes: ^uint64(0), Sockets: ^uint64(0), Next: ^uint64(0),
	}
	if got := len(worstProc.AppendRecord(nil)); got > procSlotSize {
		t.Fatalf("worst-case proc record %d > slot %d", got, procSlotSize)
	}
	worstFile := layout.FileRec{
		FD:    ^uint32(0),
		Path:  string(make([]byte, maxOpenPath)),
		Flags: ^uint32(0), Offset: ^uint64(0), Mapped: true,
		CachePages: ^uint64(0), Next: ^uint64(0),
	}
	if got := len(worstFile.AppendRecord(nil)); got > fileSlotSize {
		t.Fatalf("worst-case file record %d > slot %d", got, fileSlotSize)
	}
	// The largest shm record must fit a heap allocation (one frame).
	worstShm := layout.Shm{
		Key: ^uint64(0), Size: ^uint64(0), AttachedAt: ^uint64(0),
		Frames: make([]uint64, layout.MaxShmFrames), Next: ^uint64(0),
	}
	if got := len(worstShm.AppendRecord(nil)); got > phys.PageSize {
		t.Fatalf("worst-case shm record %d > frame", got)
	}
}
