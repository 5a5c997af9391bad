package fs

import (
	"bytes"
	"errors"
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

// TestWriteAtAfterShrinkZeroFills: a shrinking Truncate keeps the old bytes
// in spare capacity, so a write past the new end must zero the gap rather
// than reslice over them.
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

// TestSequentialAppendsDouble: appending a file page by page reallocates
// it with doubling capacity, so the bytes allocated stay within a small
// multiple of the final size (append's 1.25x growth costs about 5x here).
func TestSequentialAppendsDouble(t *testing.T) {
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
	if got := after.TotalAlloc - before.TotalAlloc; got >= 3*final {
		t.Fatalf("%d appends allocated %d bytes for a %d-byte file (%.2fx), want < 3x",
			pages, got, final, float64(got)/float64(final))
	}
	if size, err := f.Size("/log"); err != nil || size != int64(final) {
		t.Fatalf("size = %d %v, want %d", size, err, final)
	}
}
