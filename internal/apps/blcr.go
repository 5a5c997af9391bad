package apps

import (
	"fmt"
	"time"

	"otherworld/internal/checkpoint"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// BLCR models the Section 5.4 case study: an unmodified scientific
// application checkpointed by the (modified, in-memory) BLCR library. The
// application itself needs no crash procedure — Otherworld's resurrection
// preserves the in-memory checkpoints that a traditional reboot would wipe.
// The paper used an 800 MB footprint; the simulation defaults to a scaled
// image (see EXPERIMENTS.md).

// BLCR memory layout.
const (
	blcrHdrVA = 0x700000
	// BLCRDataVA is the application data region being checkpointed.
	BLCRDataVA = 0x800000
	// BLCRDataPages sizes the checkpointed image.
	BLCRDataPages = 2048 // 8 MiB
	// BLCRCkptVA is the in-memory checkpoint region.
	BLCRCkptVA = 0x4000000
	// BLCRCheckpointEvery is the checkpoint interval in steps ("periodic
	// in-memory checkpointing", Section 6).
	BLCRCheckpointEvery = 50
)

// Header word offsets.
const (
	blcrMagicOff = 8 * iota
	blcrIterOff
	blcrCkptSeqOff
)

const blcrMagic = 0xB1C40001

// BLCR is the checkpointed application program.
type BLCR struct{}

// Boot maps the data and checkpoint regions and fills the data image with a
// deterministic pattern.
func (b *BLCR) Boot(env *kernel.Env) error {
	rw := uint8(layout.ProtRead | layout.ProtWrite)
	if err := env.MapAnon(blcrHdrVA, 4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(BLCRDataVA, BLCRDataPages*4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(BLCRCkptVA, (BLCRDataPages+1)*4096, rw); err != nil {
		return err
	}
	if err := env.WriteU64(blcrHdrVA+blcrMagicOff, blcrMagic); err != nil {
		return err
	}
	// Seed the first words of each data page so iteration effects are
	// verifiable without touching every byte.
	for i := 0; i < BLCRDataPages; i++ {
		if err := env.WriteU64(BLCRDataVA+uint64(i)*4096, uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

// Step runs one iteration of the computation: take any due in-memory
// checkpoint, mutate a stride of pages, then atomically commit the
// iteration counter. Every phase is re-entrant — a kernel crash anywhere in
// the step replays it idempotently after resurrection, because the page
// writes are pure functions of the committed counter and the checkpoint is
// invalidated-then-rewritten.
func (b *BLCR) Step(env *kernel.Env) error {
	env.SyscallAborted() // computation does not care; next write proceeds

	iter, err := env.ReadU64(blcrHdrVA + blcrIterOff)
	if err != nil {
		return err
	}

	// Take (or retake, after a crash mid-copy) the checkpoint due at this
	// iteration.
	if iter > 0 && iter%BLCRCheckpointEvery == 0 {
		due := iter / BLCRCheckpointEvery
		seq, err := env.ReadU64(blcrHdrVA + blcrCkptSeqOff)
		if err != nil {
			return err
		}
		if seq != due {
			if err := checkpoint.ToMemory(env, BLCRDataVA, BLCRCkptVA, BLCRDataPages, due); err != nil {
				return err
			}
			if err := env.WriteU64(blcrHdrVA+blcrCkptSeqOff, due); err != nil {
				return err
			}
		}
	}

	// The computation writes a stride of pages per iteration; the values
	// are functions of iter, so replaying after a crash is harmless.
	for j := 0; j < 8; j++ {
		page := (iter*8 + uint64(j)) % BLCRDataPages
		if err := env.WriteU64(BLCRDataVA+page*4096+8, iter); err != nil {
			return err
		}
	}
	if err := env.Access(BLCRDataVA, BLCRDataPages, 200); err != nil {
		return err
	}
	env.Compute(300000)

	// Atomic commit of the iteration.
	return env.WriteU64(blcrHdrVA+blcrIterOff, iter+1)
}

// BLCRSnapshot is the externally verifiable BLCR state.
type BLCRSnapshot struct {
	Iter    uint64
	CkptSeq uint64
	// CkptValid reports the in-memory checkpoint header verified.
	CkptValid bool
	// DataChecksum summarizes the first word of every data page.
	DataChecksum uint64
}

// SnapshotBLCR reads the application and checkpoint state.
func SnapshotBLCR(env *kernel.Env) (*BLCRSnapshot, error) {
	magic, err := env.ReadU64(blcrHdrVA + blcrMagicOff)
	if err != nil {
		return nil, err
	}
	if magic != blcrMagic {
		return nil, fmt.Errorf("blcr state corrupted: magic %#x", magic)
	}
	s := &BLCRSnapshot{}
	if s.Iter, err = env.ReadU64(blcrHdrVA + blcrIterOff); err != nil {
		return nil, err
	}
	if s.CkptSeq, err = env.ReadU64(blcrHdrVA + blcrCkptSeqOff); err != nil {
		return nil, err
	}
	seq, pages, ok, err := checkpoint.MemoryInfo(env, BLCRCkptVA)
	if err != nil {
		return nil, err
	}
	_ = seq // the header seq may trail by one across a crash mid-commit
	s.CkptValid = ok && pages == BLCRDataPages
	for i := 0; i < BLCRDataPages; i++ {
		v, err := env.ReadU64(BLCRDataVA + uint64(i)*4096)
		if err != nil {
			return nil, err
		}
		s.DataChecksum = s.DataChecksum*1099511628211 ^ v
	}
	return s, nil
}

// MeasureCheckpointCosts captures one checkpoint of the application image
// to memory and one to disk, returning the virtual-time cost of each — the
// Section 5.4 comparison ("checkpointing performance improves approximately
// by a factor 10" when kept in memory).
func MeasureCheckpointCosts(env *kernel.Env) (memCost, diskCost time.Duration, err error) {
	clock := env.K.M.Clock
	t0 := clock.Now()
	if err := checkpoint.ToMemory(env, BLCRDataVA, BLCRCkptVA, BLCRDataPages, 1); err != nil {
		return 0, 0, err
	}
	memCost = clock.Since(t0)
	t1 := clock.Now()
	if err := checkpoint.ToDisk(env, BLCRDataVA, BLCRDataPages, "/var/lib/blcr/ckpt.img", 1); err != nil {
		return 0, 0, err
	}
	diskCost = clock.Since(t1)
	return memCost, diskCost, nil
}

// RestoreBLCRFromCheckpoint rolls the application data back to the last
// in-memory checkpoint, returning its sequence number — the post-crash
// recovery the case study exercises ("we were able to successfully recover
// application checkpoints from operating system crashes and continue
// running applications from those checkpoints").
func RestoreBLCRFromCheckpoint(env *kernel.Env) (uint64, error) {
	return checkpoint.RestoreFromMemory(env, BLCRDataVA, BLCRCkptVA)
}
