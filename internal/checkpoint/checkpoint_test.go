package checkpoint_test

import (
	"testing"

	"otherworld/internal/checkpoint"
	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
)

// ckptHost is a bare program providing an address space for checkpoint
// library tests.
type ckptHost struct{}

const (
	hostDataVA = 0x100000
	hostCkptVA = 0x900000
	hostPages  = 64
)

func (ckptHost) Boot(env *kernel.Env) error {
	rw := uint8(layout.ProtRead | layout.ProtWrite)
	if err := env.MapAnon(hostDataVA, hostPages*4096, rw); err != nil {
		return err
	}
	if err := env.MapAnon(hostCkptVA, (hostPages+1)*4096, rw); err != nil {
		return err
	}
	for i := 0; i < hostPages; i++ {
		if err := env.WriteU64(hostDataVA+uint64(i)*4096, uint64(i)+100); err != nil {
			return err
		}
	}
	return nil
}

func (ckptHost) Step(env *kernel.Env) error { return kernel.ErrYield }

func init() {
	kernel.RegisterProgram("ckpt-host", func() kernel.Program { return ckptHost{} })
}

func hostEnv(t *testing.T) (*core.Machine, *kernel.Env) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 77
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Start("host", "ckpt-host")
	if err != nil {
		t.Fatal(err)
	}
	return m, &kernel.Env{K: m.K, P: p}
}

func TestMemoryCheckpointRoundTrip(t *testing.T) {
	_, env := hostEnv(t)
	if err := checkpoint.ToMemory(env, hostDataVA, hostCkptVA, hostPages, 1); err != nil {
		t.Fatal(err)
	}
	seq, pages, ok, err := checkpoint.MemoryInfo(env, hostCkptVA)
	if err != nil || !ok || seq != 1 || pages != hostPages {
		t.Fatalf("info: seq=%d pages=%d ok=%v err=%v", seq, pages, ok, err)
	}
	// Mutate the live data, then roll back.
	for i := 0; i < hostPages; i++ {
		if err := env.WriteU64(hostDataVA+uint64(i)*4096, 0xDEAD); err != nil {
			t.Fatal(err)
		}
	}
	gotSeq, err := checkpoint.RestoreFromMemory(env, hostDataVA, hostCkptVA)
	if err != nil || gotSeq != 1 {
		t.Fatalf("restore: %d %v", gotSeq, err)
	}
	for i := 0; i < hostPages; i++ {
		v, err := env.ReadU64(hostDataVA + uint64(i)*4096)
		if err != nil || v != uint64(i)+100 {
			t.Fatalf("page %d = %d %v", i, v, err)
		}
	}
}

func TestRestoreWithoutCheckpointFails(t *testing.T) {
	_, env := hostEnv(t)
	if _, err := checkpoint.RestoreFromMemory(env, hostDataVA, hostCkptVA); err == nil {
		t.Fatal("restore with no checkpoint should fail")
	}
}

func TestDiskCheckpointRoundTrip(t *testing.T) {
	m, env := hostEnv(t)
	if err := checkpoint.ToDisk(env, hostDataVA, hostPages, "/ckpt/img", 5); err != nil {
		t.Fatal(err)
	}
	seq, pages, ok, err := checkpoint.DiskInfo(env, "/ckpt/img")
	if err != nil || !ok || seq != 5 || pages != hostPages {
		t.Fatalf("disk info: seq=%d pages=%d ok=%v err=%v", seq, pages, ok, err)
	}
	// The image really is on disk (fsynced).
	size, err := m.FS.Size("/ckpt/img")
	if err != nil || size < int64(hostPages)*4096 {
		t.Fatalf("on-disk size = %d %v", size, err)
	}
}

func TestDiskInfoMissingFile(t *testing.T) {
	_, env := hostEnv(t)
	_, _, ok, err := checkpoint.DiskInfo(env, "/no/such")
	if ok || err != nil {
		t.Fatalf("missing checkpoint: ok=%v err=%v", ok, err)
	}
}

// TestInMemoryCheckpointTenTimesFaster reproduces the Section 5.4 claim:
// checkpointing to memory is roughly an order of magnitude faster than
// checkpointing to disk (virtual time).
func TestInMemoryCheckpointTenTimesFaster(t *testing.T) {
	m, env := hostEnv(t)
	t0 := m.HW.Clock.Now()
	if err := checkpoint.ToMemory(env, hostDataVA, hostCkptVA, hostPages, 1); err != nil {
		t.Fatal(err)
	}
	memCost := m.HW.Clock.Now() - t0

	t1 := m.HW.Clock.Now()
	if err := checkpoint.ToDisk(env, hostDataVA, hostPages, "/ckpt/img", 1); err != nil {
		t.Fatal(err)
	}
	diskCost := m.HW.Clock.Now() - t1

	if memCost <= 0 || diskCost <= 0 {
		t.Fatalf("costs: mem=%v disk=%v", memCost, diskCost)
	}
	ratio := float64(diskCost) / float64(memCost)
	if ratio < 5 {
		t.Fatalf("disk/memory checkpoint ratio = %.1f, want ≳10", ratio)
	}
}

// TestCheckpointSurvivesMicroreboot combines the library with Otherworld:
// the in-memory checkpoint is intact after a kernel microreboot, which a
// traditional reboot would have wiped.
func TestCheckpointSurvivesMicroreboot(t *testing.T) {
	m, env := hostEnv(t)
	if err := checkpoint.ToMemory(env, hostDataVA, hostCkptVA, hostPages, 9); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != core.ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	np := m.K.Lookup(out.Report.Procs[0].NewPID)
	env2 := &kernel.Env{K: m.K, P: np}
	seq, pages, ok, err := checkpoint.MemoryInfo(env2, hostCkptVA)
	if err != nil || !ok || seq != 9 || pages != hostPages {
		t.Fatalf("checkpoint after microreboot: seq=%d pages=%d ok=%v err=%v", seq, pages, ok, err)
	}
	if _, err := checkpoint.RestoreFromMemory(env2, hostDataVA, hostCkptVA); err != nil {
		t.Fatal(err)
	}
}
