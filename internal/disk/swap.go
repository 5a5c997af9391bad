package disk

import (
	"errors"
	"fmt"
)

// ErrSwapFull is returned when a swap device has no free slots.
var ErrSwapFull = errors.New("disk: swap device full")

// SwapDevice manages page-sized slots on a block device. Each kernel runs
// its own SwapDevice over its own partition; the slot allocation bitmap is
// kernel state (lost on crash), while the slot *contents* are device state
// (surviving the crash), so the crash kernel can read the main kernel's
// swapped pages back out of the dead partition.
type SwapDevice struct {
	dev  *BlockDevice
	used []bool // nil until the first Alloc
	free int
}

// NewSwapDevice initializes swap management over dev with a fresh (empty)
// allocation bitmap, allocated by the first Alloc.
func NewSwapDevice(dev *BlockDevice) *SwapDevice {
	return &SwapDevice{dev: dev, free: dev.Blocks()}
}

// Device returns the underlying block device.
func (s *SwapDevice) Device() *BlockDevice { return s.dev }

// Slots returns the device capacity in page slots.
func (s *SwapDevice) Slots() int { return s.dev.Blocks() }

// FreeSlots returns the number of unallocated slots.
func (s *SwapDevice) FreeSlots() int { return s.free }

// Alloc reserves a slot and writes the page into it.
func (s *SwapDevice) Alloc(page []byte) (int, error) {
	if s.used == nil {
		s.used = make([]bool, s.dev.Blocks())
	}
	for i, u := range s.used {
		if u {
			continue
		}
		if err := s.dev.WriteBlock(i, page); err != nil {
			return 0, err
		}
		s.used[i] = true
		s.free--
		return i, nil
	}
	return 0, fmt.Errorf("%w: %s", ErrSwapFull, s.dev.Name())
}

// Read returns the page stored in slot.
func (s *SwapDevice) Read(slot int) ([]byte, error) {
	return s.dev.ReadBlock(slot)
}

// ReadRaw reads a slot without consulting the allocation bitmap. The crash
// kernel uses it to pull pages out of the *main* kernel's partition, whose
// bitmap died with the main kernel; the slot numbers come from the dead
// kernel's page tables instead.
func ReadRaw(dev *BlockDevice, slot int) ([]byte, error) {
	return dev.ReadBlock(slot)
}

// Free releases a slot. Freeing an unallocated slot is a no-op.
func (s *SwapDevice) Free(slot int) {
	if slot < 0 || slot >= len(s.used) || !s.used[slot] {
		return
	}
	s.used[slot] = false
	s.free++
}
