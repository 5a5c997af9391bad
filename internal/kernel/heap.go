package kernel

import (
	"fmt"

	"otherworld/internal/phys"
)

// Heap is the kernel record allocator. Records are placed inside dedicated
// heap frames and never span a frame boundary, so a record's bytes are
// physically contiguous and the crash kernel can read them with plain
// physical addressing. Freed space is recycled by exact size, which is all
// the kernel needs: record payloads are fixed once created (string fields
// are set at creation time and only fixed-width fields are rewritten).
type Heap struct {
	mem   *phys.Mem
	alloc *phys.FrameAllocator

	curFrame int
	curOff   int
	haveCur  bool

	freeBySize map[int][]uint64

	// frames lists every heap frame for accounting.
	frames []int
	// AllocatedBytes tracks live record bytes (Table 4 context).
	AllocatedBytes int64
}

// NewHeap creates an empty heap drawing frames from alloc.
func NewHeap(mem *phys.Mem, alloc *phys.FrameAllocator) *Heap {
	return &Heap{
		mem:        mem,
		alloc:      alloc,
		freeBySize: make(map[int][]uint64),
	}
}

// maxAlloc is the largest single allocation: one frame.
const maxAlloc = phys.PageSize

// Alloc reserves n contiguous bytes of kernel heap and returns their
// physical address.
func (h *Heap) Alloc(n int) (uint64, error) {
	if n <= 0 || n > maxAlloc {
		return 0, fmt.Errorf("kernel: heap allocation of %d bytes unsupported", n)
	}
	if free := h.freeBySize[n]; len(free) > 0 {
		addr := free[len(free)-1]
		h.freeBySize[n] = free[:len(free)-1]
		h.AllocatedBytes += int64(n)
		return addr, nil
	}
	if !h.haveCur || h.curOff+n > phys.PageSize {
		f, err := h.alloc.Alloc(phys.FrameKernelHeap)
		if err != nil {
			return 0, err
		}
		h.curFrame = f
		h.curOff = 0
		h.haveCur = true
		h.frames = append(h.frames, f)
	}
	addr := phys.FrameAddr(h.curFrame) + uint64(h.curOff)
	h.curOff += n
	h.AllocatedBytes += int64(n)
	return addr, nil
}

// Free returns an allocation of n bytes at addr to the size-class free list.
func (h *Heap) Free(addr uint64, n int) {
	if n <= 0 || n > maxAlloc {
		return
	}
	h.freeBySize[n] = append(h.freeBySize[n], addr)
	h.AllocatedBytes -= int64(n)
}

// Frames returns the heap frame numbers, for fault-injection targeting.
func (h *Heap) Frames() []int { return h.frames }

// WriteNewRecord allocates space for rec, a sealed record image (a record
// type's AppendRecord), and writes it there, returning the record's
// physical address and size.
func (h *Heap) WriteNewRecord(rec []byte) (addr uint64, size int, err error) {
	addr, err = h.Alloc(len(rec))
	if err != nil {
		return 0, 0, err
	}
	if err := h.mem.WriteAt(addr, rec); err != nil {
		return 0, 0, err
	}
	return addr, len(rec), nil
}
