package kernel

import (
	"fmt"

	"otherworld/internal/layout"
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

	// rec is the record image every record the kernel writes is sealed
	// in (recordBuffer, seal): WriteNewRecord, the slot rewrites and the
	// in-place re-seals. Like the kernel's recBuf and stackBuf it has one
	// writer at a time, the kernel's goroutine, and each record is sealed
	// and written before the next is built.
	rec []byte
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

// WriteNewRecord seals rec, a payload appended to recordBuffer, as a record
// of type t, allocates space for it and writes it, returning the record's
// physical address and framed size.
func (h *Heap) WriteNewRecord(t layout.Type, rec []byte) (addr uint64, size int, err error) {
	size = len(rec) + layout.TrailerSize
	addr, err = h.Alloc(size)
	if err != nil {
		return 0, 0, err
	}
	if err := h.mem.WriteAt(addr, h.seal(rec, t)); err != nil {
		return 0, 0, err
	}
	return addr, size, nil
}

// recordBuffer returns the heap's record image with HeaderSize bytes of
// room for the header, for a payload to be appended and the record sealed
// with seal.
func (h *Heap) recordBuffer() []byte {
	if cap(h.rec) < layout.HeaderSize {
		h.rec = make([]byte, 0, procSlotSize)
	}
	return h.rec[:layout.HeaderSize]
}

// seal seals rec, built on recordBuffer, as a record of type t and keeps
// its storage, grown or not, for the next record.
func (h *Heap) seal(rec []byte, t layout.Type) []byte {
	rec = layout.SealInto(rec, t, 0)
	h.rec = rec[:0]
	return rec
}
