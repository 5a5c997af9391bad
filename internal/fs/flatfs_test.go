package fs

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestCreateWriteRead(t *testing.T) {
	f := New()
	if err := f.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if !f.Exists("/a") || f.Exists("/b") {
		t.Fatal("existence wrong")
	}
	if _, err := f.WriteAt("/a", 0, []byte("hello"), false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	n, err := f.ReadAt("/a", 0, buf)
	if err != nil || n != 5 || string(buf) != "hello" {
		t.Fatalf("read: %d %q %v", n, buf, err)
	}
}

func TestWriteAtExtendsWithZeroes(t *testing.T) {
	f := New()
	if _, err := f.WriteAt("/a", 10, []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size("/a")
	if err != nil || size != 11 {
		t.Fatalf("size = %d %v", size, err)
	}
	buf := make([]byte, 11)
	if _, err := f.ReadAt("/a", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:10], make([]byte, 10)) || buf[10] != 'x' {
		t.Fatalf("hole not zeroed: %v", buf)
	}
}

func TestReadPastEOF(t *testing.T) {
	f := New()
	_ = f.WriteFile("/a", []byte("ab"))
	buf := make([]byte, 4)
	n, err := f.ReadAt("/a", 2, buf)
	if err != nil || n != 0 {
		t.Fatalf("read at EOF: %d %v", n, err)
	}
	n, err = f.ReadAt("/a", 1, buf)
	if err != nil || n != 1 || buf[0] != 'b' {
		t.Fatalf("partial read: %d %v", n, err)
	}
}

func TestMissingFileErrors(t *testing.T) {
	f := New()
	if _, err := f.ReadAt("/nope", 0, nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read: %v", err)
	}
	if _, err := f.WriteAt("/nope", 0, nil, false); !errors.Is(err, ErrNotExist) {
		t.Fatalf("write: %v", err)
	}
	if err := f.Remove("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("remove: %v", err)
	}
	if err := f.Truncate("/nope", 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("truncate: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	f := New()
	_ = f.WriteFile("/a", []byte("hello world"))
	if err := f.Truncate("/a", 5); err != nil {
		t.Fatal(err)
	}
	data, _ := f.ReadFile("/a")
	if string(data) != "hello" {
		t.Fatalf("got %q", data)
	}
	if err := f.Truncate("/a", 8); err != nil {
		t.Fatal(err)
	}
	data, _ = f.ReadFile("/a")
	if !bytes.Equal(data, []byte("hello\x00\x00\x00")) {
		t.Fatalf("grow: %q", data)
	}
	if err := f.Truncate("/a", -1); err == nil {
		t.Fatal("negative truncate")
	}
}

func TestListSorted(t *testing.T) {
	f := New()
	_ = f.Create("/b")
	_ = f.Create("/a")
	_ = f.Create("/c")
	got := f.List()
	if len(got) != 3 || got[0] != "/a" || got[2] != "/c" {
		t.Fatalf("list = %v", got)
	}
}

func TestBadPaths(t *testing.T) {
	for _, p := range []string{"", "a\x00b", string(make([]byte, 5000))} {
		f := New()
		if err := f.Create(p); !errors.Is(err, ErrBadPath) {
			t.Fatalf("Create(%q): %v", p, err)
		}
	}
}

func TestWriteFileReadFileProperty(t *testing.T) {
	f := New()
	fn := func(name string, data []byte) bool {
		if !ValidPath(name) {
			return true
		}
		if err := f.WriteFile(name, data); err != nil {
			return false
		}
		got, err := f.ReadFile(name)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileReturnsCopy(t *testing.T) {
	f := New()
	_ = f.WriteFile("/a", []byte("abc"))
	got, _ := f.ReadFile("/a")
	got[0] = 'z'
	again, _ := f.ReadFile("/a")
	if again[0] != 'a' {
		t.Fatal("ReadFile aliased internal storage")
	}
}

func TestBytesWritten(t *testing.T) {
	f := New()
	_ = f.WriteFile("/a", make([]byte, 100))
	_, _ = f.WriteAt("/a", 0, make([]byte, 50), false)
	if got := f.BytesWritten(); got != 150 {
		t.Fatalf("bytes written = %d", got)
	}
}

// TestWriteAtAfterShrinkZeroFills: a shrinking Truncate that cuts a sector
// must clear the cut part, so a write past the new end reads zeros in the
// gap rather than the old bytes.
func TestWriteAtAfterShrinkZeroFills(t *testing.T) {
	f := New()
	if _, err := f.WriteAt("/a", 0, []byte("hello world"), true); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate("/a", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("/a", 9, []byte("!"), false); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile("/a")
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("hello\x00\x00\x00\x00!"); !bytes.Equal(got, want) {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// sectorsHeld counts the sectors of path's file that have storage.
func sectorsHeld(t *testing.T, f *FlatFS, path string) int {
	t.Helper()
	fl, ok := f.files[path]
	if !ok {
		t.Fatalf("%s does not exist", path)
	}
	n := 0
	for _, s := range fl.sectors {
		if s != nil {
			n++
		}
	}
	return n
}

// TestSectorStorageCost pins what a file costs the host: sequential appends
// allocate about the file itself, and only sectors a write puts a non-zero
// byte on get storage.
func TestSectorStorageCost(t *testing.T) {
	const pages, pageSize = 256, 4096
	f := New()
	page := bytes.Repeat([]byte{0x77}, pageSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pages; i++ {
		if _, err := f.WriteAt("/log", int64(i*pageSize), page, true); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	final := uint64(pages * pageSize)
	if got := after.TotalAlloc - before.TotalAlloc; got*10 > final*11 {
		t.Errorf("%d appends allocated %d bytes for a %d-byte file (%.2fx), want <= 1.1x",
			pages, got, final, float64(got)/float64(final))
	}
	if size, err := f.Size("/log"); err != nil || size != int64(final) {
		t.Fatalf("size = %d %v, want %d", size, err, final)
	}

	// A hole and an all-zero write have a size but no storage.
	if err := f.Create("/hole"); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate("/hole", 64<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("/zeros", 8192, make([]byte, pageSize), true); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/hole", "/zeros"} {
		if n := sectorsHeld(t, f, p); n != 0 {
			t.Errorf("%s holds %d sectors, want 0", p, n)
		}
	}

	// A WAL-shaped page, a header and a trailing checksum with zeros
	// between them, stores its first and last sectors.
	wal := make([]byte, pageSize)
	copy(wal, bytes.Repeat([]byte{0xa5}, 48))
	copy(wal[pageSize-4:], []byte{1, 2, 3, 4})
	if _, err := f.WriteAt("/wal", 0, wal, true); err != nil {
		t.Fatal(err)
	}
	if n := sectorsHeld(t, f, "/wal"); n != 2 {
		t.Errorf("a WAL-shaped page holds %d sectors, want 2", n)
	}

	// A file smaller than a sector takes one.
	if err := f.WriteFile("/small", bytes.Repeat([]byte{'x'}, 100)); err != nil {
		t.Fatal(err)
	}
	if n := sectorsHeld(t, f, "/small"); n != 1 {
		t.Errorf("a 100-byte file holds %d sectors, want 1", n)
	}
}

// TestRefusedWriteCreatesNothing: a write with create set but a negative
// offset, such as a page-cache offset at or past 2^63 converted to int64,
// is refused without leaving an empty file behind, which no crash-model
// rollback would remove.
func TestRefusedWriteCreatesNothing(t *testing.T) {
	f := New()
	for _, off := range []int64{-1, math.MinInt64} {
		if _, err := f.WriteAt("/new", off, []byte("x"), true); err == nil {
			t.Fatalf("WriteAt at offset %d succeeded", off)
		}
		if f.Exists("/new") {
			t.Fatalf("refused WriteAt at offset %d created the file", off)
		}
	}
	if got := f.BytesWritten(); got != 0 {
		t.Fatalf("refused writes counted %d bytes", got)
	}
}

// BenchmarkFlatFSAppend appends 4 KiB WAL-shaped pages, a header and a
// trailing checksum with zeros between them, to a log that starts over
// every 256 pages.
func BenchmarkFlatFSAppend(b *testing.B) {
	const pages, pageSize = 256, 4096
	f := New()
	page := make([]byte, pageSize)
	copy(page, bytes.Repeat([]byte{0xa5}, 48))
	copy(page[pageSize-4:], []byte{1, 2, 3, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%pages == 0 {
			if err := f.Create("/log"); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := f.WriteAt("/log", int64(i%pages*pageSize), page, false); err != nil {
			b.Fatal(err)
		}
	}
}
