// Package disk models the persistent storage layer: named block devices and
// swap devices. Disk contents survive kernel crashes and microreboots — the
// property both kernels depend on: the main kernel swaps to one partition,
// the crash kernel re-stages those pages onto a *second* partition
// (Section 3.2) and flushes dirty file buffers during resurrection
// (Section 3.3).
package disk

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// BlockSize is the device block size; it equals the memory page size so swap
// slots and page-cache pages map one-to-one to blocks.
const BlockSize = 4096

// ErrNoDevice is returned when opening an unknown device name.
var ErrNoDevice = errors.New("disk: no such device")

// BlockDevice is a fixed-capacity array of blocks addressed by index. A
// block gets its storage on its first write; until then it reads as zeros.
// The slot table, one pointer per block, is allocated by the device's first
// write, so a partition never written costs nothing per block.
type BlockDevice struct {
	name   string
	n      int
	blocks []*[BlockSize]byte // nil until the first write

	mu     sync.Mutex
	reads  int64
	writes int64
}

// NewBlockDevice creates a device with the given number of blocks.
func NewBlockDevice(name string, blocks int) *BlockDevice {
	return &BlockDevice{name: name, n: blocks}
}

// Name returns the symbolic device name (e.g. "/dev/sdb1").
func (d *BlockDevice) Name() string { return d.name }

// Blocks returns the device capacity in blocks.
func (d *BlockDevice) Blocks() int { return d.n }

// ReadBlock copies block i into a fresh BlockSize buffer. Unwritten blocks
// read as zeroes.
func (d *BlockDevice) ReadBlock(i int) ([]byte, error) {
	if i < 0 || i >= d.n {
		return nil, fmt.Errorf("disk %s: block %d out of range", d.name, i)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	buf := make([]byte, BlockSize)
	if d.blocks != nil && d.blocks[i] != nil {
		copy(buf, d.blocks[i][:])
	}
	return buf, nil
}

// WriteBlock stores data (at most BlockSize bytes) into block i; the rest of
// the block reads as zeros.
func (d *BlockDevice) WriteBlock(i int, data []byte) error {
	if i < 0 || i >= d.n {
		return fmt.Errorf("disk %s: block %d out of range", d.name, i)
	}
	if len(data) > BlockSize {
		return fmt.Errorf("disk %s: write of %d bytes exceeds block size", d.name, len(data))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	if d.blocks == nil {
		d.blocks = make([]*[BlockSize]byte, d.n)
	}
	b := d.blocks[i]
	if b == nil {
		b = new([BlockSize]byte)
		d.blocks[i] = b
	}
	clear(b[copy(b[:], data):])
	return nil
}

// Stats returns the cumulative read and write block counts.
func (d *BlockDevice) Stats() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// Bus is the machine's device registry: the set of block devices the kernel
// can open by symbolic name, which is exactly how the crash kernel reopens
// the swap device recorded in the main kernel's swap-area descriptor.
type Bus struct {
	mu   sync.Mutex
	devs map[string]*BlockDevice
	// names lists devs' names in sorted order. Attach replaces the slice
	// instead of editing it, so one that Names returned never changes.
	names []string
}

// NewBus returns an empty device bus.
func NewBus() *Bus {
	return &Bus{devs: make(map[string]*BlockDevice)}
}

// Attach adds a device to the bus, replacing any existing device with the
// same name.
func (b *Bus) Attach(d *BlockDevice) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i, found := slices.BinarySearch(b.names, d.Name()); !found {
		b.names = slices.Insert(slices.Clip(b.names), i, d.Name())
	}
	b.devs[d.Name()] = d
}

// Open looks up a device by name.
func (b *Bus) Open(name string) (*BlockDevice, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.devs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDevice, name)
	}
	return d, nil
}

// Names returns the attached device names in sorted order. The slice is
// the bus's own and must not be modified; a later Attach leaves it as it
// is, so reading it needs no lock and no copy.
func (b *Bus) Names() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.names
}
