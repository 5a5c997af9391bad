package disk

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"otherworld/internal/fs"
)

// histState snapshots one file's contents after each model write, so tests
// can assert that a crash leaves exactly some prefix of the write history.
func histState(f *fs.FlatFS, path string) []byte {
	data, err := f.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}

func TestCrashModelBarrierMakesWritesDurable(t *testing.T) {
	f := fs.New()
	m := NewCrashModel(f, 1, 8)
	if _, err := m.Write("log", 0, []byte("hello world!")); err != nil {
		t.Fatal(err)
	}
	m.Barrier()
	if m.PendingWrites() != 0 {
		t.Fatalf("PendingWrites = %d after barrier, want 0", m.PendingWrites())
	}
	m.Arm(true, true, false)
	rep, err := m.CrashNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack != 0 || rep.Torn {
		t.Fatalf("crash undid barriered writes: %+v", rep)
	}
	if got := histState(f, "log"); !bytes.Equal(got, []byte("hello world!")) {
		t.Fatalf("file = %q, want barriered contents", got)
	}
}

// TestCrashModelRollbackLeavesPrefixState checks the rollback contract: the
// platter after a crash is exactly the state after some prefix of the
// volatile write history, regardless of how many writes the seeded roll
// undoes.
func TestCrashModelRollbackLeavesPrefixState(t *testing.T) {
	sawFull, sawNone := false, false
	for seed := int64(0); seed < 40; seed++ {
		f := fs.New()
		m := NewCrashModel(f, seed, 32)
		// Record the file state after each write: states[i] is the platter
		// after i writes.
		states := [][]byte{nil}
		writes := []struct {
			off  int64
			data string
		}{
			{0, "aaaaaaaa"}, {4, "BBBB"}, {8, "cccc"}, {2, "XY"}, {12, "dddddddd"},
		}
		for _, w := range writes {
			if _, err := m.Write("f", w.off, []byte(w.data)); err != nil {
				t.Fatal(err)
			}
			states = append(states, histState(f, "f"))
		}
		m.Arm(false, true, false)
		rep, err := m.CrashNow()
		if err != nil {
			t.Fatal(err)
		}
		if rep.RolledBack == len(writes) {
			sawFull = true
		}
		if rep.RolledBack == 0 {
			sawNone = true
		}
		survived := len(writes) - rep.RolledBack
		if got, want := histState(f, "f"), states[survived]; !bytes.Equal(got, want) {
			t.Fatalf("seed %d: rolled back %d, file = %q, want prefix state %q",
				seed, rep.RolledBack, got, want)
		}
	}
	if !sawFull || !sawNone {
		t.Fatalf("seeds never exercised both extremes (full=%v none=%v)", sawFull, sawNone)
	}
}

// TestCrashModelRollbackRemovesCreatedFile: undoing the write that created a
// file removes the file entirely — a creation lost in drive RAM leaves no
// trace.
func TestCrashModelRollbackRemovesCreatedFile(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		f := fs.New()
		m := NewCrashModel(f, seed, 8)
		if _, err := m.Write("fresh", 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		m.Arm(false, true, false)
		rep, err := m.CrashNow()
		if err != nil {
			t.Fatal(err)
		}
		if rep.RolledBack == 0 {
			continue
		}
		if _, err := f.ReadFile("fresh"); err == nil {
			t.Fatalf("seed %d: rolled-back creation left the file behind", seed)
		}
		return
	}
	t.Fatal("no seed under 60 rolled back the creating write")
}

// TestCrashModelTearCutsMidSector: with only tear armed, the newest volatile
// write keeps a strict prefix of its payload and the rest reverts.
func TestCrashModelTearCutsMidSector(t *testing.T) {
	base := bytes.Repeat([]byte("0"), 2048)
	payload := bytes.Repeat([]byte("W"), 1536) // 3 sectors
	sawTear := false
	for seed := int64(0); seed < 40; seed++ {
		f := fs.New()
		m := NewCrashModel(f, seed, 8)
		if _, err := m.Write("f", 0, base); err != nil {
			t.Fatal(err)
		}
		m.Barrier()
		if _, err := m.Write("f", 256, payload); err != nil {
			t.Fatal(err)
		}
		m.Arm(true, false, false)
		rep, err := m.CrashNow()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Torn {
			t.Fatalf("seed %d: tear armed with a volatile write but Torn=false", seed)
		}
		if rep.TornPath != "f" || rep.TornOff != 256 {
			t.Fatalf("seed %d: tore %q@%d, want f@256", seed, rep.TornPath, rep.TornOff)
		}
		if rep.TearPoint < 0 || rep.TearPoint >= len(payload) {
			t.Fatalf("seed %d: tear point %d outside [0, %d)", seed, rep.TearPoint, len(payload))
		}
		if rep.TearPoint > 0 {
			sawTear = true
		}
		want := append([]byte(nil), base...)
		copy(want[256:], payload[:rep.TearPoint])
		if got := histState(f, "f"); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: torn file diverges from prefix-of-write at tear %d",
				seed, rep.TearPoint)
		}
	}
	if !sawTear {
		t.Fatal("no seed produced a non-zero tear point")
	}
}

// TestCrashModelTearTruncatesExtendingTail: a torn write that extended the
// file leaves the file ending at the tear point — the unwritten extension
// never existed.
func TestCrashModelTearTruncatesExtendingTail(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		f := fs.New()
		m := NewCrashModel(f, seed, 8)
		payload := bytes.Repeat([]byte("T"), 1024)
		if _, err := m.Write("f", 0, payload); err != nil {
			t.Fatal(err)
		}
		m.Arm(true, false, false)
		rep, err := m.CrashNow()
		if err != nil {
			t.Fatal(err)
		}
		got := histState(f, "f")
		if len(got) != rep.TearPoint {
			t.Fatalf("seed %d: file length %d, want tear point %d", seed, len(got), rep.TearPoint)
		}
		if !bytes.Equal(got, payload[:rep.TearPoint]) {
			t.Fatalf("seed %d: torn tail is not a prefix of the write", seed)
		}
	}
}

func TestCrashModelCacheDepthRetiresOldWrites(t *testing.T) {
	f := fs.New()
	m := NewCrashModel(f, 3, 4)
	for i := 0; i < 10; i++ {
		if _, err := m.Write("f", int64(i*8), []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	if m.PendingWrites() != 4 {
		t.Fatalf("PendingWrites = %d, want the cache depth 4", m.PendingWrites())
	}
	// Only the newest 4 writes are undoable: bytes [0, 48) retired durable.
	m.Arm(false, true, false)
	rep, err := m.CrashNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack > 4 {
		t.Fatalf("rolled back %d writes, more than the cache held", rep.RolledBack)
	}
	data := histState(f, "f")
	if len(data) < 48 || !bytes.Equal(data[:48], bytes.Repeat([]byte("12345678"), 6)) {
		t.Fatalf("retired (durable) prefix was damaged: %q", data)
	}
}

func TestOrphanFlushSeededAndConsumed(t *testing.T) {
	pages := []DirtyPage{
		{Path: "a", Off: 0, Data: bytes.Repeat([]byte("A"), 64)},
		{Path: "a", Off: 64, Data: bytes.Repeat([]byte("B"), 64)},
		{Path: "b", Off: 0, Data: bytes.Repeat([]byte("C"), 64)},
	}
	run := func(seed int64, arm bool) (string, CrashReport) {
		f := fs.New()
		m := NewCrashModel(f, seed, 8)
		m.Arm(false, false, arm)
		rep, err := m.OrphanFlush(pages)
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		for _, p := range f.List() {
			d, _ := f.ReadFile(p)
			fmt.Fprintf(&img, "%s=%q;", p, d)
		}
		return img.String(), rep
	}
	imgA, repA := run(7, true)
	imgB, repB := run(7, true)
	if imgA != imgB || repA != repB {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", imgA, imgB)
	}
	imgOff, repOff := run(7, false)
	if imgOff != "" {
		t.Fatalf("unarmed orphan flush wrote to the platter: %s", imgOff)
	}
	if repOff.OrphanFlushed != 0 || repOff.OrphanTotal != len(pages) {
		t.Fatalf("unarmed report = %+v, want only the total counted", repOff)
	}
}

// miniRec builds a 512-byte checksummed record, the fuzz harness's
// stand-in for a WAL slot.
func miniRec(tag byte) []byte {
	rec := make([]byte, SectorSize)
	for i := 0; i < SectorSize-4; i++ {
		rec[i] = tag
	}
	crc := crc32.ChecksumIEEE(rec[:SectorSize-4])
	rec[SectorSize-4] = byte(crc)
	rec[SectorSize-3] = byte(crc >> 8)
	rec[SectorSize-2] = byte(crc >> 16)
	rec[SectorSize-1] = byte(crc >> 24)
	return rec
}

// scanMini is the recovery scan: it must never panic on any post-crash
// image, and classifies each slot valid/invalid by checksum.
func scanMini(data []byte) (valid, invalid int) {
	for off := 0; off+SectorSize <= len(data); off += SectorSize {
		slot := data[off : off+SectorSize]
		crc := uint32(slot[SectorSize-4]) | uint32(slot[SectorSize-3])<<8 |
			uint32(slot[SectorSize-2])<<16 | uint32(slot[SectorSize-1])<<24
		if crc32.ChecksumIEEE(slot[:SectorSize-4]) == crc {
			valid++
		} else {
			invalid++
		}
	}
	if len(data)%SectorSize != 0 {
		invalid++
	}
	return valid, invalid
}

// FuzzTornWrite drives the crash model over fuzzer-chosen (write count,
// sector payloads, cache depth, seed) and checks the two properties every
// caller depends on: the post-crash recovery scan never panics, and the
// crash consequences are a pure function of the seed — two fresh models
// given identical inputs produce bit-identical platters and verdicts.
func FuzzTornWrite(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(2))
	f.Add(int64(99), uint8(1), uint8(0), uint8(7))
	f.Add(int64(-5), uint8(8), uint8(32), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nWrites, depth, orphans uint8) {
		if nWrites > 24 {
			nWrites = 24
		}
		if orphans > 8 {
			orphans = 8
		}
		run := func() (string, CrashReport, int, int) {
			fsys := fs.New()
			m := NewCrashModel(fsys, seed, int(depth))
			for i := byte(0); i < nWrites; i++ {
				if _, err := m.Write("wal", int64(i)*SectorSize, miniRec('a'+i%26)); err != nil {
					t.Fatal(err)
				}
				if i%5 == 4 {
					m.Barrier()
				}
			}
			m.Arm(true, true, true)
			if _, err := m.CrashNow(); err != nil {
				t.Fatal(err)
			}
			var pages []DirtyPage
			for i := byte(0); i < orphans; i++ {
				pages = append(pages, DirtyPage{
					Path: "wal",
					Off:  int64(nWrites+i) * SectorSize,
					Data: miniRec('A' + i),
				})
			}
			rep, err := m.OrphanFlush(pages)
			if err != nil {
				t.Fatal(err)
			}
			img := histState(fsys, "wal")
			valid, invalid := scanMini(img)
			return string(img), rep, valid, invalid
		}
		imgA, repA, validA, invalidA := run()
		imgB, repB, validB, invalidB := run()
		if imgA != imgB {
			t.Fatalf("same seed produced different platters (len %d vs %d)", len(imgA), len(imgB))
		}
		if repA != repB {
			t.Fatalf("same seed produced different reports: %+v vs %+v", repA, repB)
		}
		if validA != validB || invalidA != invalidB {
			t.Fatalf("recovery verdict unstable: %d/%d vs %d/%d", validA, invalidA, validB, invalidB)
		}
		if repA.TearPoint < 0 || (repA.Torn && repA.TearPoint >= int(nWrites)*SectorSize) {
			t.Fatalf("tear point %d out of range", repA.TearPoint)
		}
	})
}

// walPage is a WAL-shaped page: a header and a trailing checksum with
// zeros between them.
func walPage(tag byte) []byte {
	p := make([]byte, 4096)
	copy(p, bytes.Repeat([]byte{tag}, 48))
	copy(p[len(p)-4:], []byte{tag, tag, tag, tag})
	return p
}

// TestCrashModelZeroHolePreimage: an fsync writes the page cache's newest
// page first, extending the file over a hole the next writes fill. Those
// writes keep no copy of their all-zero preimage, only the shared zero
// page, yet rollback and tear still put the zeros back; a non-zero
// preimage is still copied out of the model's buffer.
func TestCrashModelZeroHolePreimage(t *testing.T) {
	const page = 4096
	writes := []struct {
		off  int64
		data []byte
	}{
		{3 * page, walPage('d')}, // extends the file over the hole [page, 3*page)
		{page, walPage('b')},     // fills it: all-zero preimage
		{2 * page, walPage('c')}, // fills it: all-zero preimage
		{0, walPage('A')},        // overwrites durable data
	}
	sawPartial, sawTear := false, false
	for seed := int64(0); seed < 40; seed++ {
		f := fs.New()
		m := NewCrashModel(f, seed, 8)
		if _, err := m.Write("wal", 0, walPage('a')); err != nil {
			t.Fatal(err)
		}
		m.Barrier()
		states := [][]byte{histState(f, "wal")}
		for _, w := range writes {
			if _, err := m.Write("wal", w.off, w.data); err != nil {
				t.Fatal(err)
			}
			states = append(states, histState(f, "wal"))
		}
		for i, ent := range m.log {
			shared := len(ent.preimage) > 0 && &ent.preimage[0] == &zeroPage[0]
			switch {
			case (i == 1 || i == 2) && !shared:
				t.Fatalf("write %d over a zero hole kept its own preimage", i)
			case i == 3 && (shared || &ent.preimage[0] == &m.pre[0] || !bytes.Equal(ent.preimage, walPage('a'))):
				t.Fatalf("the overwrite's preimage is not a copy of the old page")
			}
		}
		m.Arm(seed%2 == 0, true, false)
		rep, err := m.CrashNow()
		if err != nil {
			t.Fatal(err)
		}
		survived := len(writes) - rep.RolledBack
		want := bytes.Clone(states[survived])
		if rep.Torn {
			// The newest surviving write keeps its first TearPoint bytes;
			// the rest reverts to what the state before it held there.
			w := writes[survived-1]
			prev := states[survived-1]
			for i := rep.TearPoint; i < len(w.data); i++ {
				if at := w.off + int64(i); at < int64(len(prev)) {
					want[at] = prev[at]
				} else {
					want = want[:at]
					break
				}
			}
			if survived == 2 || survived == 3 {
				sawTear = true
			}
		} else if survived == 1 || survived == 2 {
			sawPartial = true
		}
		if got := histState(f, "wal"); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: %d rolled back, torn=%v at %d: platter diverges from the expected state",
				seed, rep.RolledBack, rep.Torn, rep.TearPoint)
		}
	}
	if !sawPartial || !sawTear {
		t.Fatalf("seeds never rolled back to, or tore, a hole-filling write (rollback %v, tear %v)", sawPartial, sawTear)
	}
	if !bytes.Equal(zeroPage[:], make([]byte, len(zeroPage))) {
		t.Fatal("the shared zero page was written")
	}
}

// BenchmarkCrashModel times the crash model's three jobs over WAL-shaped
// pages: the WAL's fsync pattern, a crash that rolls back and tears, and
// the orphan flush after one.
func BenchmarkCrashModel(b *testing.B) {
	const page = 4096
	b.Run("write-barrier", func(b *testing.B) {
		// Three pages written newest first, a barrier, one page, a barrier:
		// the first write extends the file over a hole the next two fill.
		f := fs.New()
		if err := f.Create("wal"); err != nil {
			b.Fatal(err)
		}
		m := NewCrashModel(f, 1, 0)
		pg := walPage('r')
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := f.Truncate("wal", 0); err != nil {
				b.Fatal(err)
			}
			for _, off := range []int64{2 * page, page, 0} {
				if _, err := m.Write("wal", off, pg); err != nil {
					b.Fatal(err)
				}
			}
			m.Barrier()
			if _, err := m.Write("wal", 3*page, pg); err != nil {
				b.Fatal(err)
			}
			m.Barrier()
		}
	})
	b.Run("rollback-tear", func(b *testing.B) {
		// 32 unbarriered writes over 16 durable pages, newest first: an
		// extension, 15 fills of its hole and 16 overwrites. Then a crash
		// armed to roll back and tear.
		f := fs.New()
		m := NewCrashModel(f, 1, 0)
		base := bytes.Repeat(walPage('a'), 16)
		pg := walPage('w')
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := f.WriteFile("wal", base); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for p := 31; p >= 0; p-- {
				if _, err := m.Write("wal", int64(p)*page, pg); err != nil {
					b.Fatal(err)
				}
			}
			m.Arm(true, true, false)
			if _, err := m.CrashNow(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("orphan-flush", func(b *testing.B) {
		f := fs.New()
		m := NewCrashModel(f, 1, 0)
		pages := make([]DirtyPage, 64)
		for i := range pages {
			pages[i] = DirtyPage{Path: fmt.Sprintf("f%d", i%4), Off: int64(i/4) * page, Data: walPage(byte('A' + i%26))}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Arm(false, false, true)
			if _, err := m.OrphanFlush(pages); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCrashModelLogReusesStorage: the volatile log keeps one backing array.
// Writes over a hole have all-zero preimages, which share the zero page, so
// once the log has reached its depth a stream of them, aging the oldest out
// and drained by barriers, allocates nothing.
func TestCrashModelLogReusesStorage(t *testing.T) {
	const page = 4096
	f := fs.New()
	if err := f.Create("wal"); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate("wal", 64*page); err != nil {
		t.Fatal(err)
	}
	m := NewCrashModel(f, 1, 0)
	zeros := make([]byte, page)
	round := func() {
		for i := 0; i < DefaultCacheDepth+8; i++ {
			if _, err := m.Write("wal", int64(i)*page, zeros); err != nil {
				t.Fatal(err)
			}
		}
		if m.PendingWrites() != DefaultCacheDepth {
			t.Fatalf("%d pending writes, want the depth %d", m.PendingWrites(), DefaultCacheDepth)
		}
		m.Barrier()
	}
	round()
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Fatalf("%v allocations a round of %d writes and a barrier, want 0", n, DefaultCacheDepth+8)
	}
}
