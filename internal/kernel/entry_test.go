package kernel

import (
	"testing"

	"otherworld/internal/disk"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// TestKernelEntriesAllocateNothing: on a warmed kernel a system call or the
// page-fault path's region walk allocates nothing. Every record an entry
// visits is decoded into a value its caller owns, through the kernel's one
// record buffer, and every record it changes is re-sealed in the heap's
// record image. The counted traffic is what the allocating path made: two
// reads per record visited (the header, then payload plus CRC) and one
// write per seal, besides the gate's and the data's own.
func TestKernelEntriesAllocateNothing(t *testing.T) {
	k := bootTestKernel(t, func(p *Params) { p.Net = NewNetwork() })
	k.Disk = disk.NewCrashModel(k.FS, 1, 0)
	env := envFor(t, k)
	const va = 0x100000
	for i := uint64(0); i < 2; i++ {
		if err := env.MapAnon(va+i*phys.PageSize, phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
			t.Fatal(err)
		}
	}
	// fd 3 holds one clean cached page and is the second entry of the fd
	// list: files are linked at the head.
	fd, err := env.Open("/data/a", layout.FlagRead|layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(fd, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := env.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Open("/data/b", layout.FlagRead|layout.FlagWrite|layout.FlagCreate); err != nil {
		t.Fatal(err)
	}
	if err := env.TermOpen(1); err != nil {
		t.Fatal(err)
	}
	// Socket 1 is the second entry of its list, with messages queued for
	// every SockRecv below.
	for id := uint32(1); id <= 2; id++ {
		if err := env.SockOpen(id, layout.ProtoTCP, uint16(8000+id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		k.P.Net.Deliver(8001, []byte("ping"))
	}

	// Fault the first page in: the copies below find it present.
	if err := env.WriteU64(va, 1); err != nil {
		t.Fatal(err)
	}

	// The gate saves the context on entry and on exit (two writes), and
	// reads the live stack window and the text of the gate and of the
	// handler (three reads).
	const gateReads, gateWrites = 3, 2
	var buf [64]byte
	var region layout.MemRegion
	for _, e := range []struct {
		name          string
		call          func() error
		reads, writes int64
	}{
		// Two file records and one seal.
		{"Seek", func() error { return env.Seek(fd, 0) }, gateReads + 4, gateWrites + 1},
		// Two file records, the cached page's record and its bytes, and
		// the offset's seal. (Later calls read past the end of the file.)
		{"ReadFile", func() error { _, err := env.ReadFile(fd, buf[:]); return err }, gateReads + 7, gateWrites + 1},
		// Two file records and the page-cache chain, and no write.
		{"Fsync", func() error { return env.Fsync(fd) }, gateReads + 6, gateWrites},
		// Two file records, the cached page's record, the bytes, the
		// entry's seal, the file record's re-read and its seal.
		{"WriteFile", func() error { _, err := env.WriteFile(fd, buf[:8]); return err }, gateReads + 8, gateWrites + 3},
		// The terminal record and the screen; the screen and the record's
		// seal.
		{"TermWrite", func() error { return env.TermWrite([]byte("ab")) }, gateReads + 3, gateWrites + 2},
		// The terminal record.
		{"TermRead", func() error { _, _, err := env.TermRead(); return err }, gateReads + 2, gateWrites},
		// Two socket records each.
		{"SockSend", func() error { return env.SockSend(1, buf[:4]) }, gateReads + 4, gateWrites},
		{"SockRecv", func() error { _, err := env.SockRecv(1); return err }, gateReads + 4, gateWrites},
		// A user-memory copy, no gate: the page-table walk's two entries,
		// and the bytes read, or the dirty PTE and the bytes written.
		{"ReadU64", func() error { _, err := env.ReadU64(va); return err }, 3, 0},
		{"WriteU64", func() error { return env.WriteU64(va+8, 2) }, 2, 2},
		// The page fault's walk: two region records, no gate.
		{"findRegion", func() error { return k.findRegion(env.P, va, &region) }, 4, 0},
	} {
		before := k.M.Mem.Stats()
		if err := e.call(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		after := k.M.Mem.Stats()
		if n := after.ReadOps - before.ReadOps; n != e.reads {
			t.Errorf("%s: %d counted reads, want %d", e.name, n, e.reads)
		}
		if n := after.WriteOps - before.WriteOps; n != e.writes {
			t.Errorf("%s: %d counted writes, want %d", e.name, n, e.writes)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := e.call(); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations a call, want 0", e.name, n)
		}
	}
	if region.Start != va {
		t.Fatalf("findRegion(%#x) found the region at %#x", uint64(va), region.Start)
	}
}
