// Package fs implements the persistent file system both kernels mount at
// the same mount point (Section 3.2: "the crash kernel and the main kernel
// ... mount the same file systems at the same mount points"). File contents
// survive kernel crashes; only in-memory state — open-file offsets and the
// page cache — dies with the main kernel and is rebuilt by resurrection.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors reported by the file system.
var (
	ErrNotExist = errors.New("fs: file does not exist")
	ErrExist    = errors.New("fs: file already exists")
	ErrBadPath  = errors.New("fs: invalid path")
)

// FlatFS is a flat-namespace file system: paths are opaque strings, files
// are byte arrays. It stands in for the ext3 file systems of the paper's
// testbed; hierarchy is irrelevant to resurrection, which only needs to
// reopen files by recorded name.
type FlatFS struct {
	mu    sync.Mutex
	files map[string]*file
	// writesBytes tracks cumulative bytes written, used by the time model
	// to charge crash-procedure saves.
	writeBytes int64
}

type file struct {
	data []byte
}

// New returns an empty file system.
func New() *FlatFS {
	return &FlatFS{files: make(map[string]*file)}
}

// ValidPath reports whether p is an acceptable file path.
func ValidPath(p string) bool {
	return p != "" && !strings.ContainsRune(p, '\x00') && len(p) < 4096
}

// Create makes an empty file, truncating any existing one.
func (f *FlatFS) Create(path string) error {
	if !ValidPath(path) {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[path] = &file{}
	return nil
}

// Exists reports whether path names a file.
func (f *FlatFS) Exists(path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.files[path]
	return ok
}

// Size returns the length of the file at path.
func (f *FlatFS) Size(path string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	return int64(len(fl.data)), nil
}

// ReadAt copies up to len(buf) bytes from the file starting at off,
// returning the number of bytes read. Reading at or past EOF returns 0.
func (f *FlatFS) ReadAt(path string, off int64, buf []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
	}
	if off >= int64(len(fl.data)) {
		return 0, nil
	}
	return copy(buf, fl.data[off:]), nil
}

// WriteAt stores buf into the file at off, extending it with zeroes if off
// is past the current end. The file is created if absent and create is true.
func (f *FlatFS) WriteAt(path string, off int64, buf []byte, create bool) (int, error) {
	if !ValidPath(path) {
		return 0, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[path]
	if !ok {
		if !create {
			return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
		}
		fl = &file{}
		f.files[path] = fl
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
	}
	if end := off + int64(len(buf)); end > int64(len(fl.data)) {
		fl.data = extend(fl.data, end)
	}
	copy(fl.data[off:], buf)
	f.writeBytes += int64(len(buf))
	return len(buf), nil
}

// Truncate resizes the file to n bytes.
func (f *FlatFS) Truncate(path string, n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if n < 0 {
		return fmt.Errorf("fs: negative size %d", n)
	}
	if n <= int64(len(fl.data)) {
		fl.data = fl.data[:n]
		return nil
	}
	fl.data = extend(fl.data, n)
	return nil
}

// extend lengthens data to n bytes of which the new ones read as zeros.
// When it must reallocate, capacity at least doubles, so sequential
// appends (log writers, crash dumps) copy each byte O(1) times. Spare
// capacity may still hold bytes from before a shrinking Truncate, so a
// reslice clears the extension explicitly.
func extend(data []byte, n int64) []byte {
	if n > int64(cap(data)) {
		grown := make([]byte, n, max(n, 2*int64(cap(data))))
		copy(grown, data)
		return grown
	}
	old := len(data)
	data = data[:n]
	clear(data[old:])
	return data
}

// Remove deletes the file at path.
func (f *FlatFS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[path]; !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	delete(f.files, path)
	return nil
}

// List returns all file paths in sorted order.
func (f *FlatFS) List() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	paths := make([]string, 0, len(f.files))
	for p := range f.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// ReadFile returns a copy of the whole file.
func (f *FlatFS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	out := make([]byte, len(fl.data))
	copy(out, fl.data)
	return out, nil
}

// WriteFile replaces the whole file with data, creating it if needed.
func (f *FlatFS) WriteFile(path string, data []byte) error {
	if !ValidPath(path) {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	f.files[path] = &file{data: cp}
	f.writeBytes += int64(len(data))
	return nil
}

// BytesWritten returns the cumulative bytes written, for the time model.
func (f *FlatFS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeBytes
}
