package core

import "otherworld/internal/disk"

// swapSlotsPerPartition sizes each of the two swap partitions: 16384
// page-sized blocks, 64 MB per partition.
const swapSlotsPerPartition = 16384

// newSwapPartition builds the block device backing one swap partition.
func newSwapPartition(name string) *disk.BlockDevice {
	return disk.NewBlockDevice(name, swapSlotsPerPartition)
}
