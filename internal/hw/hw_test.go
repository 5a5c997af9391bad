package hw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"otherworld/internal/phys"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Access(1) {
		t.Fatal("first access should miss")
	}
	if !tlb.Access(1) {
		t.Fatal("second access should hit")
	}
	// Fill and overflow: a random victim is evicted; exactly one of the
	// five pages must now miss on re-access.
	tlb.Access(2)
	tlb.Access(3)
	tlb.Access(4)
	tlb.Access(5) // evicts one of 1-4
	misses := tlb.Misses
	for v := uint64(1); v <= 5; v++ {
		tlb.Access(v)
	}
	// At least the evicted page misses; re-installs may evict others, but
	// never more than the working-set excess allows.
	if d := tlb.Misses - misses; d < 1 || d > 4 {
		t.Fatalf("re-access misses = %d, want 1..4", d)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8)
	for v := uint64(0); v < 8; v++ {
		tlb.Access(v)
	}
	tlb.Flush()
	if tlb.Flushes != 1 {
		t.Fatalf("flushes = %d", tlb.Flushes)
	}
	for v := uint64(0); v < 8; v++ {
		if tlb.Access(v) {
			t.Fatalf("vpn %d hit after flush", v)
		}
	}
}

// TestTLBWorkingSetProperty: a working set no larger than the TLB has zero
// steady-state misses; a larger one always misses somewhere.
func TestTLBWorkingSetProperty(t *testing.T) {
	f := func(sizeSeed, wsSeed uint8) bool {
		size := 1 + int(sizeSeed%63)
		ws := 1 + int(wsSeed%127)
		tlb := NewTLB(size)
		// Two full passes: the first warms, the second measures.
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				tlb.ResetStats()
			}
			for v := 0; v < ws; v++ {
				tlb.Access(uint64(v))
			}
		}
		if ws <= size {
			return tlb.Misses == 0
		}
		return tlb.Misses > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

var benchHit bool

// BenchmarkTLBAccess times one translation in a 64-entry TLB under a
// seeded uniform working set of 72 pages, a little larger than the TLB as
// the workloads' access patterns are, so some accesses miss and evict.
func BenchmarkTLBAccess(b *testing.B) {
	const entries, pages = 64, 72
	rng := rand.New(rand.NewSource(1))
	vpns := make([]uint64, 4096)
	for i := range vpns {
		vpns[i] = 0x210 + uint64(rng.Intn(pages))
	}
	tlb := NewTLB(entries)
	for _, v := range vpns {
		tlb.Access(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHit = tlb.Access(vpns[i%len(vpns)])
	}
}

func TestIDTRoundTrip(t *testing.T) {
	mem := phys.NewMem(8 * phys.PageSize)
	alloc := phys.NewFrameAllocator(mem, phys.Region{Start: 0, Frames: 8})
	if err := InstallIDT(mem, alloc, 0x4000); err != nil {
		t.Fatal(err)
	}
	h, ok := ReadIDTEntry(mem, VecKexec)
	if !ok || h != 0x4000+VecKexec {
		t.Fatalf("kexec gate = %#x ok=%v", h, ok)
	}
	// Corrupt the gate: reads must fail structurally.
	addr := IDTAddr + uint64(VecKexec)*16
	if err := mem.WriteAt(addr, []byte{0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ReadIDTEntry(mem, VecKexec); ok {
		t.Fatal("corrupted gate should not validate")
	}
	// Other vectors remain intact.
	if _, ok := ReadIDTEntry(mem, VecNMI); !ok {
		t.Fatal("NMI gate should still validate")
	}
}

func TestBroadcastHaltNMI(t *testing.T) {
	m := NewMachine(Config{MemoryBytes: 1 << 20, NumCPUs: 3, TLBEntries: 4})
	m.CPUs[0].CurrentPID = 1
	m.CPUs[1].CurrentPID = 2
	m.CPUs[2].CurrentPID = 3
	var saved []int
	ok := m.BroadcastHaltNMI(0, func(cpu *CPU) bool {
		saved = append(saved, cpu.ID)
		return true
	})
	if !ok {
		t.Fatal("all CPUs acked, broadcast should succeed")
	}
	if len(saved) != 2 {
		t.Fatalf("handler ran on %d CPUs, want 2", len(saved))
	}
	for _, c := range m.CPUs {
		if !c.Halted {
			t.Fatalf("CPU %d not halted", c.ID)
		}
	}
	if !m.CPUs[1].HaltAcked || !m.CPUs[2].HaltAcked {
		t.Fatal("acks missing")
	}
}

func TestBroadcastHaltNMIFailedAck(t *testing.T) {
	m := NewMachine(Config{MemoryBytes: 1 << 20, NumCPUs: 2, TLBEntries: 4})
	ok := m.BroadcastHaltNMI(0, func(cpu *CPU) bool { return false })
	if ok {
		t.Fatal("broadcast should report failed ack")
	}
	m.ResetCPUs()
	for _, c := range m.CPUs {
		if c.Halted || c.HaltAcked {
			t.Fatal("ResetCPUs should clear halt state")
		}
	}
}

func TestDefaultConfigSanity(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg)
	if m.Mem.Size() != cfg.MemoryBytes {
		t.Fatalf("memory = %d", m.Mem.Size())
	}
	if len(m.CPUs) != 2 {
		t.Fatalf("cpus = %d", len(m.CPUs))
	}
	if !m.Watchdog {
		t.Fatal("watchdog should default on")
	}
}

func TestDeviceProbeCosts(t *testing.T) {
	devs := DefaultDevices()
	if ProbeAll(devs).Seconds() != 27 {
		t.Fatalf("full probe = %v, want 27s (Table 6 calibration)", ProbeAll(devs))
	}
	fast := ProbeChangedOnly(devs)
	if fast >= ProbeAll(devs) {
		t.Fatal("reusing device info must be cheaper")
	}
	// Non-reprobeable devices still pay full price.
	var vga Device
	for _, d := range devs {
		if !d.Reprobeable {
			vga = d
		}
	}
	if vga.Name == "" {
		t.Fatal("expected a non-reprobeable device")
	}
	if fast < vga.ProbeTime {
		t.Fatal("fast probe cannot undercut the non-reprobeable device")
	}
}
