// Package fs implements the persistent file system both kernels mount at
// the same mount point (Section 3.2: "the crash kernel and the main kernel
// ... mount the same file systems at the same mount points"). File contents
// survive kernel crashes; only in-memory state — open-file offsets and the
// page cache — dies with the main kernel and is rebuilt by resurrection.
//
// A file is a length plus a table of SectorSize sectors. A sector gets
// storage only when a write puts a non-zero byte on it, and one without
// storage reads as zeros, so a hole, a zero-filled tail or the zero gap
// between a log record's header and its checksum costs the host nothing.
package fs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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

// SectorSize is the storage unit of a file and the atomic write unit of
// the modeled platter: the block-layer crash model tears an in-flight write
// inside one of these, so the two cannot drift apart.
const SectorSize = 512

// FlatFS is a flat-namespace file system: paths are opaque strings, files
// are sector tables. It stands in for the ext3 file systems of the paper's
// testbed; hierarchy is irrelevant to resurrection, which only needs to
// reopen files by recorded name.
type FlatFS struct {
	mu    sync.Mutex
	files map[string]*file
	// writesBytes tracks cumulative bytes written, used by the time model
	// to charge crash-procedure saves.
	writeBytes int64
}

// file is size bytes held in sectors, one pointer per SectorSize bytes of
// the file. A nil sector reads as zeros. Every byte of the last sector past
// size is zero, so growing the file needs no clearing.
type file struct {
	size    int64
	sectors []*[SectorSize]byte
}

// zeroSector is what a sector without storage holds.
var zeroSector [SectorSize]byte

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
	return fl.size, nil
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
	return fl.read(off, buf), nil
}

// WriteAt stores buf into the file at off, extending it with zeroes if off
// is past the current end. The file is created if absent and create is true;
// a refused write creates nothing.
func (f *FlatFS) WriteAt(path string, off int64, buf []byte, create bool) (int, error) {
	if !ValidPath(path) {
		return 0, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
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
	if end := off + int64(len(buf)); end > fl.size {
		fl.resize(end)
	}
	fl.write(off, buf)
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
	fl.resize(n)
	return nil
}

// resize sets the file's length to n. Growing extends only the sector
// table, with sectors that read as zeros. Shrinking drops the whole sectors
// past n and clears the tail of the partial one, so a later growth reads
// zeros there.
func (fl *file) resize(n int64) {
	old, need := len(fl.sectors), int((n+SectorSize-1)/SectorSize)
	if need > old {
		fl.sectors = slices.Grow(fl.sectors, need-old)[:need]
	} else {
		// Clearing the dropped pointers frees their sectors and keeps the
		// spare capacity nil for a later growth to reslice over.
		clear(fl.sectors[need:])
		fl.sectors = fl.sectors[:need]
		if tail := n % SectorSize; n < fl.size && tail != 0 && fl.sectors[need-1] != nil {
			clear(fl.sectors[need-1][tail:])
		}
	}
	fl.size = n
}

// write copies buf into the file at off; the file already covers
// off+len(buf). A sector without storage gets it only if the part of buf
// that lands on it holds a non-zero byte. A sector with storage takes every
// byte, zeros included.
func (fl *file) write(off int64, buf []byte) {
	for len(buf) > 0 {
		i, o := off/SectorSize, int(off%SectorSize)
		n := min(len(buf), SectorSize-o)
		s := fl.sectors[i]
		if s == nil && !bytes.Equal(buf[:n], zeroSector[:n]) {
			s = new([SectorSize]byte)
			fl.sectors[i] = s
		}
		if s != nil {
			copy(s[o:], buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
	}
}

// read copies the file's bytes from off into buf, up to EOF, and returns
// how many it copied. A sector without storage reads as zeros.
func (fl *file) read(off int64, buf []byte) int {
	if off >= fl.size {
		return 0
	}
	buf = buf[:min(int64(len(buf)), fl.size-off)]
	total := len(buf)
	for len(buf) > 0 {
		i, o := off/SectorSize, int(off%SectorSize)
		n := min(len(buf), SectorSize-o)
		if s := fl.sectors[i]; s != nil {
			copy(buf, s[o:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
	}
	return total
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
	out := make([]byte, fl.size)
	fl.read(0, out)
	return out, nil
}

// WriteFile replaces the whole file with data, creating it if needed.
func (f *FlatFS) WriteFile(path string, data []byte) error {
	if !ValidPath(path) {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fl := &file{}
	fl.resize(int64(len(data)))
	fl.write(0, data)
	f.files[path] = fl
	f.writeBytes += int64(len(data))
	return nil
}

// BytesWritten returns the cumulative bytes written, for the time model.
func (f *FlatFS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeBytes
}
