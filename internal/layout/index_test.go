package layout

import (
	"strings"
	"testing"
)

// idxMem is a bare in-memory MemoryAccessor for index tests.
type idxMem struct{ b []byte }

func (m *idxMem) ReadAt(addr uint64, p []byte) error {
	copy(p, m.b[addr:])
	return nil
}
func (m *idxMem) WriteAt(addr uint64, p []byte) error {
	copy(m.b[addr:], p)
	return nil
}

func newIdxMem(slots int) *idxMem {
	return &idxMem{b: make([]byte, (slots+1)*IndexSlotSize)}
}

func mustWriter(t *testing.T, m *idxMem, slots int, gen uint32) *IndexWriter {
	t.Helper()
	w, err := NewIndexWriter(m, 0, slots+1, gen)
	if err != nil {
		t.Fatalf("NewIndexWriter: %v", err)
	}
	return w
}

func TestIndexRoundTrip(t *testing.T) {
	m := newIdxMem(8)
	w := mustWriter(t, m, 8, 7)
	entries := []IndexEntry{
		{PID: 1, Addr: 0x1000, Name: "mysqld-0", Program: "mysqld", CrashProc: "mysql-crash"},
		{PID: 2, Addr: 0x2000, Name: "sh-0", Program: "sh"},
		{PID: 3, Addr: 0x3000, Name: "apache-0", Program: "apache-php", CrashProc: "apache-crash"},
	}
	for _, e := range entries {
		if err := w.Put(e.PID, e.Addr, e.Name, e.Program, e.CrashProc); err != nil {
			t.Fatalf("Put pid %d: %v", e.PID, err)
		}
	}
	sal, err := ParseIndex(m, 0, len(m.b), true)
	if err != nil {
		t.Fatalf("ParseIndex: %v", err)
	}
	if sal.Header.Generation != 7 || sal.Skipped != 0 {
		t.Fatalf("header gen=%d skipped=%d", sal.Header.Generation, sal.Skipped)
	}
	if len(sal.Entries) != len(entries) {
		t.Fatalf("salvaged %d entries, want %d", len(sal.Entries), len(entries))
	}
	byPID := map[uint32]IndexEntry{}
	for _, e := range sal.Entries {
		byPID[e.PID] = e
	}
	for _, want := range entries {
		got := byPID[want.PID]
		got.Gen = 0 // generation is stamped by the writer
		if got.PID != want.PID || got.Addr != want.Addr || got.Name != want.Name ||
			got.Program != want.Program || got.CrashProc != want.CrashProc {
			t.Fatalf("entry pid %d = %+v, want %+v", want.PID, got, want)
		}
	}
}

func TestIndexUpdateReusesSlot(t *testing.T) {
	m := newIdxMem(4)
	w := mustWriter(t, m, 4, 1)
	for i := 0; i < 3; i++ {
		// Same PID rewritten must not consume fresh slots.
		if err := w.Put(9, uint64(0x100*(i+1)), "sh", "sh", ""); err != nil {
			t.Fatalf("Put #%d: %v", i, err)
		}
	}
	sal, err := ParseIndex(m, 0, len(m.b), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sal.Entries) != 1 {
		t.Fatalf("%d entries after rewrites, want 1", len(sal.Entries))
	}
	if sal.Entries[0].Addr != 0x300 {
		t.Fatalf("addr = %#x, want last write 0x300", sal.Entries[0].Addr)
	}
}

func TestIndexDeleteTombstones(t *testing.T) {
	m := newIdxMem(4)
	w := mustWriter(t, m, 4, 1)
	for pid := uint32(1); pid <= 3; pid++ {
		if err := w.Put(pid, uint64(pid)*0x1000, "p", "sh", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Delete(2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := w.Delete(42); err != nil {
		t.Fatalf("Delete of unknown pid must be a no-op, got %v", err)
	}
	sal, err := ParseIndex(m, 0, len(m.b), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sal.Entries) != 2 {
		t.Fatalf("%d live entries after tombstone, want 2", len(sal.Entries))
	}
	for _, e := range sal.Entries {
		if e.PID == 2 {
			t.Fatalf("tombstoned pid 2 still salvaged")
		}
	}
	// The slot must be reusable.
	if err := w.Put(4, 0x4000, "p", "sh", ""); err != nil {
		t.Fatalf("Put after Delete: %v", err)
	}
}

func TestIndexFullIsExplicit(t *testing.T) {
	m := newIdxMem(2)
	w := mustWriter(t, m, 2, 1)
	if err := w.Put(1, 0x1000, "a", "sh", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(2, 0x2000, "b", "sh", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(3, 0x3000, "c", "sh", ""); err != ErrIndexFull {
		t.Fatalf("overflow Put = %v, want ErrIndexFull", err)
	}
	// A full index still salvages what it holds.
	sal, err := ParseIndex(m, 0, len(m.b), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sal.Entries) != 2 {
		t.Fatalf("full index salvaged %d entries, want 2", len(sal.Entries))
	}
}

func TestIndexEntryCorruptionSkipsAndCounts(t *testing.T) {
	m := newIdxMem(4)
	w := mustWriter(t, m, 4, 1)
	for pid := uint32(1); pid <= 3; pid++ {
		if err := w.Put(pid, uint64(pid)*0x1000, "proc", "sh", ""); err != nil {
			t.Fatal(err)
		}
	}
	// Flip payload bytes inside entry slot 2 (slot 0 is the header).
	m.b[2*IndexSlotSize+FrameHeaderSize+2] ^= 0xff
	sal, err := ParseIndex(m, 0, len(m.b), true)
	if err != nil {
		t.Fatalf("entry damage must not be fatal: %v", err)
	}
	if sal.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", sal.Skipped)
	}
	if len(sal.Entries) != 2 {
		t.Fatalf("salvaged %d entries around the damage, want 2", len(sal.Entries))
	}
}

func TestIndexHeaderCorruptionIsFatal(t *testing.T) {
	m := newIdxMem(4)
	w := mustWriter(t, m, 4, 1)
	if err := w.Put(1, 0x1000, "proc", "sh", ""); err != nil {
		t.Fatal(err)
	}
	m.b[3] ^= 0xff // header frame damage
	if _, err := ParseIndex(m, 0, len(m.b), true); err == nil {
		t.Fatalf("corrupt header must reject the whole index")
	}
}

func TestIndexStaleGenerationSkipped(t *testing.T) {
	m := newIdxMem(4)
	old := mustWriter(t, m, 4, 1)
	if err := old.Put(1, 0x1000, "stale", "sh", ""); err != nil {
		t.Fatal(err)
	}
	// A newer writer over the same memory does what a kernel generation
	// bump does: reuses the region, re-stamps the header. Entry slots it
	// never rewrites must parse as stale, skip-and-count.
	hdr := IndexHeader{Version: IndexVersion, Slots: 4}
	if err := m.WriteAt(0, sealFrame(KindIndexHeader, 0, 2, IndexSlotSize, hdr.appendTo(nil))); err != nil {
		t.Fatal(err)
	}
	sal, err := ParseIndex(m, 0, len(m.b), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sal.Entries) != 0 || sal.Skipped != 1 {
		t.Fatalf("stale entry: entries=%d skipped=%d, want 0/1", len(sal.Entries), sal.Skipped)
	}
}

func TestIndexRejectsLongStrings(t *testing.T) {
	m := newIdxMem(4)
	w := mustWriter(t, m, 4, 1)
	long := strings.Repeat("x", 300)
	if err := w.Put(1, 0x1000, long, "sh", ""); err == nil {
		t.Fatalf("oversized name must be rejected, slot is %d bytes", IndexSlotSize)
	}
}

func TestIndexWriterNeedsRoom(t *testing.T) {
	m := newIdxMem(4)
	if _, err := NewIndexWriter(m, 0, 1, 1); err == nil {
		t.Fatalf("a header-only index must be rejected")
	}
}

// TestIndexWritesAllocateNothing: a process's create, crash-procedure
// registration and exit each write one index slot, encoded and sealed in
// the writer's own images, so none allocates once the writer knows the PID.
func TestIndexWritesAllocateNothing(t *testing.T) {
	m := newIdxMem(4)
	w := mustWriter(t, m, 4, 1)
	if err := w.Put(7, 0x1000, "mysqld", "mysqld", ""); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := w.Put(7, 0x1000, "mysqld", "mysqld", "mysql-crash"); err != nil {
			t.Fatal(err)
		}
		if err := w.Delete(7); err != nil {
			t.Fatal(err)
		}
		if err := w.Put(7, 0x1000, "mysqld", "mysqld", ""); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("put, delete and put again: %v allocations, want 0", n)
	}
	sal, err := ParseIndex(m, 0, len(m.b), true)
	if err != nil || len(sal.Entries) != 1 || sal.Entries[0].PID != 7 || sal.Entries[0].CrashProc != "" {
		t.Fatalf("index after the writes: %+v, %v", sal, err)
	}
}
