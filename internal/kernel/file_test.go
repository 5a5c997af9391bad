package kernel

import (
	"bytes"
	"errors"
	"testing"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

func envFor(t testing.TB, k *Kernel) *Env {
	t.Helper()
	p, err := k.CreateProcess("t", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	return &Env{K: k, P: p}
}

func TestOpenWriteReadSeekClose(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	fd, err := env.Open("/data/log", layout.FlagRead|layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := env.WriteFile(fd, []byte("hello world")); err != nil || n != 11 {
		t.Fatalf("write: %d %v", n, err)
	}
	if err := env.Seek(fd, 6); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := env.ReadFile(fd, buf); err != nil || n != 5 {
		t.Fatalf("read: %d %v", n, err)
	}
	if string(buf) != "world" {
		t.Fatalf("got %q", buf)
	}
	if err := env.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := env.ReadFile(fd, buf); !errors.Is(err, ErrBadFD) {
		t.Fatalf("closed fd: %v", err)
	}
}

// TestWritesAreBufferedUntilFsync is the page-cache property that makes the
// crash kernel's dirty-buffer flush matter: written data is invisible on
// disk until fsync (or close).
func TestWritesAreBufferedUntilFsync(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	fd, err := env.Open("/data/f", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(fd, []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	onDisk, err := k.FS.ReadFile("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 0 {
		t.Fatalf("data reached disk before fsync: %q", onDisk)
	}
	if err := env.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	onDisk, _ = k.FS.ReadFile("/data/f")
	if string(onDisk) != "buffered" {
		t.Fatalf("after fsync: %q", onDisk)
	}
}

// TestBufferedWritesVisibleToReads: reads must see cached dirty data even
// before it reaches the disk.
func TestBufferedWritesVisibleToReads(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	fd, _ := env.Open("/data/f", layout.FlagRead|layout.FlagWrite|layout.FlagCreate)
	if _, err := env.WriteFile(fd, []byte("cached!")); err != nil {
		t.Fatal(err)
	}
	if err := env.Seek(fd, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if n, err := env.ReadFile(fd, buf); err != nil || n != 7 || string(buf) != "cached!" {
		t.Fatalf("read-through-cache: %d %q %v", n, buf, err)
	}
}

func TestCloseFlushesDirtyPages(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	fd, _ := env.Open("/data/f", layout.FlagWrite|layout.FlagCreate)
	_, _ = env.WriteFile(fd, []byte("persisted on close"))
	if err := env.Close(fd); err != nil {
		t.Fatal(err)
	}
	onDisk, _ := k.FS.ReadFile("/data/f")
	if string(onDisk) != "persisted on close" {
		t.Fatalf("close did not flush: %q", onDisk)
	}
}

func TestOpenFlagsSemantics(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if _, err := env.Open("/nope", layout.FlagRead); err == nil {
		t.Fatal("open of missing file without create must fail")
	}
	// Append positions at EOF.
	_ = k.FS.WriteFile("/a", []byte("12345"))
	fd, err := env.Open("/a", layout.FlagWrite|layout.FlagAppend)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = env.WriteFile(fd, []byte("67"))
	_ = env.Fsync(fd)
	onDisk, _ := k.FS.ReadFile("/a")
	if string(onDisk) != "1234567" {
		t.Fatalf("append: %q", onDisk)
	}
	// Truncate empties the file.
	fd2, err := env.Open("/a", layout.FlagWrite|layout.FlagTrunc)
	if err != nil {
		t.Fatal(err)
	}
	_ = env.Close(fd2)
	if size, _ := k.FS.Size("/a"); size != 0 {
		t.Fatalf("trunc left %d bytes", size)
	}
	// Writing through a read-only fd fails.
	_ = k.FS.WriteFile("/ro", []byte("x"))
	fd3, _ := env.Open("/ro", layout.FlagRead)
	if _, err := env.WriteFile(fd3, []byte("y")); err == nil {
		t.Fatal("write to read-only fd should fail")
	}
}

func TestPartialPageWritePreservesSurroundings(t *testing.T) {
	k := bootTestKernel(t, nil)
	_ = k.FS.WriteFile("/f", bytes.Repeat([]byte{'A'}, 8192))
	env := envFor(t, k)
	fd, _ := env.Open("/f", layout.FlagRead|layout.FlagWrite)
	if err := env.Seek(fd, 4000); err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(fd, bytes.Repeat([]byte{'B'}, 200)); err != nil {
		t.Fatal(err)
	}
	_ = env.Fsync(fd)
	onDisk, _ := k.FS.ReadFile("/f")
	for i, b := range onDisk {
		want := byte('A')
		if i >= 4000 && i < 4200 {
			want = 'B'
		}
		if b != want {
			t.Fatalf("byte %d = %c, want %c", i, b, want)
		}
	}
}

func TestFileOffsetsPerDescriptor(t *testing.T) {
	k := bootTestKernel(t, nil)
	_ = k.FS.WriteFile("/f", []byte("abcdef"))
	env := envFor(t, k)
	fd1, _ := env.Open("/f", layout.FlagRead)
	fd2, _ := env.Open("/f", layout.FlagRead)
	b1 := make([]byte, 2)
	b2 := make([]byte, 3)
	_, _ = env.ReadFile(fd1, b1)
	_, _ = env.ReadFile(fd2, b2)
	if string(b1) != "ab" || string(b2) != "abc" {
		t.Fatalf("independent offsets broken: %q %q", b1, b2)
	}
	_, _ = env.ReadFile(fd1, b1)
	if string(b1) != "cd" {
		t.Fatalf("fd1 offset: %q", b1)
	}
}

func TestManyOpenFilesWalk(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	var fds []uint32
	for i := 0; i < 40; i++ {
		fd, err := env.Open("/many", layout.FlagRead|layout.FlagWrite|layout.FlagCreate)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	// Each descriptor resolvable; close half and re-verify.
	for i, fd := range fds {
		if i%2 == 0 {
			if err := env.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, fd := range fds {
		var rec layout.FileRec
		_, err := k.lookupFile(env.P, fd, &rec)
		if i%2 == 0 && err == nil {
			t.Fatalf("closed fd %d still resolves", fd)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("open fd %d lost: %v", fd, err)
		}
	}
}

// cachedChain writes a file of pages pages through one descriptor and
// fsyncs it, leaving a clean page-cache chain of that many entries. It
// returns the file's record and address.
func cachedChain(t testing.TB, pages int) (*Kernel, *layout.FileRec, uint64) {
	t.Helper()
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	fd, err := env.Open("/data/wal", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(fd, bytes.Repeat([]byte{0x5A}, pages*phys.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := env.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	var rec layout.FileRec
	addr, err := k.lookupFile(env.P, fd, &rec)
	if err != nil {
		t.Fatal(err)
	}
	return k, &rec, addr
}

// TestRecordWritesAllocateNothing: once the kernel has written a record,
// re-sealing a process descriptor or a file record into its slot builds
// the record in the kernel's record buffer, so it allocates nothing, and
// it writes the bytes the record's encoder makes.
func TestRecordWritesAllocateNothing(t *testing.T) {
	k, rec, addr := cachedChain(t, 1)
	p := k.Procs()[0]
	for _, w := range []struct {
		name  string
		write func() error
		at    uint64
		want  []byte
	}{
		{"writeProc", func() error { return k.writeProc(p) }, p.Addr, p.D.AppendRecord(nil)},
		{"writeFileRec", func() error { return k.writeFileRec(addr, rec) }, addr, rec.AppendRecord(nil)},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := w.write(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", w.name, n)
		}
		got := make([]byte, len(w.want))
		if err := k.M.Mem.ReadAt(w.at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w.want) {
			t.Errorf("%s wrote %x, want %x", w.name, got, w.want)
		}
	}
}

// TestPageCacheWalksAllocateNothing: a clean fsync and a page-cache hit on
// the chain's last entry walk all 64 entries of a file's chain. Each entry
// costs exactly two counted reads (the 8-byte header, then payload plus
// CRC) and no heap allocation.
func TestPageCacheWalksAllocateNothing(t *testing.T) {
	const pages = 64
	k, rec, addr := cachedChain(t, pages)
	entry := len((&layout.CachePage{}).AppendRecord(nil))
	walks := []struct {
		name string
		op   func() error
	}{
		{"flushFile", func() error { return k.flushFile(rec, addr) }},
		{"cachePageFor", func() error {
			// Pages are pushed at the head, so offset 0 is the last entry.
			_, cp, err := k.cachePageFor(rec, addr, 0)
			if err == nil && (cp.FileOff != 0 || cp.Next != 0 || cp.Dirty) {
				t.Errorf("cachePageFor(0) = %+v, want the clean last entry", cp)
			}
			return err
		}},
	}
	for _, w := range walks {
		before := k.M.Mem.Stats()
		if err := w.op(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		after := k.M.Mem.Stats()
		if ops := after.ReadOps - before.ReadOps; ops != 2*pages {
			t.Errorf("%s: %d counted reads, want %d", w.name, ops, 2*pages)
		}
		if n := after.ReadBytes - before.ReadBytes; n != int64(pages*entry) {
			t.Errorf("%s: %d bytes read, want %d", w.name, n, pages*entry)
		}
		if after.WriteOps != before.WriteOps {
			t.Errorf("%s: wrote %d times to a clean chain", w.name, after.WriteOps-before.WriteOps)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = w.op() }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per walk, want 0", w.name, allocs)
		}
	}
}

// BenchmarkPageCacheWalk walks a clean 64-page chain: a lookup that hits
// the last entry and an fsync with nothing to flush.
func BenchmarkPageCacheWalk(b *testing.B) {
	k, rec, addr := cachedChain(b, 64)
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := k.cachePageFor(rec, addr, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flush", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := k.flushFile(rec, addr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCacheFillZeroesPastDisk: a page filled from a short file is zero
// past the disk's bytes, even when the kernel's page buffer last held
// another file's data.
func TestCacheFillZeroesPastDisk(t *testing.T) {
	k := bootTestKernel(t, nil)
	env := envFor(t, k)
	if err := k.FS.WriteFile("/data/full", bytes.Repeat([]byte{0xEE}, phys.PageSize)); err != nil {
		t.Fatal(err)
	}
	full, err := env.Open("/data/full", layout.FlagWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(full, []byte{1}); err != nil {
		t.Fatal(err)
	}
	empty, err := env.Open("/data/empty", layout.FlagWrite|layout.FlagCreate)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Seek(empty, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := env.WriteFile(empty, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := env.Fsync(empty); err != nil {
		t.Fatal(err)
	}
	got, err := k.FS.ReadFile("/data/empty")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(make([]byte, 100), 'x'); !bytes.Equal(got, want) {
		t.Fatalf("flushed %x, want 100 zero bytes then 'x'", got)
	}
}
