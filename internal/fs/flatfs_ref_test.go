package fs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// referenceFS is the reference model FuzzFlatFSOps replays every op on: the
// flat-slice store FlatFS replaced, each file one byte slice grown by
// doubling, with the rule that a refused write creates nothing.
type referenceFS struct {
	files      map[string][]byte
	writeBytes int64
}

func newReferenceFS() *referenceFS {
	return &referenceFS{files: make(map[string][]byte)}
}

func (r *referenceFS) create(path string) error {
	if !ValidPath(path) {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	r.files[path] = nil
	return nil
}

func (r *referenceFS) size(path string) (int64, error) {
	data, ok := r.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	return int64(len(data)), nil
}

func (r *referenceFS) readAt(path string, off int64, buf []byte) (int, error) {
	data, ok := r.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
	}
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(buf, data[off:]), nil
}

func (r *referenceFS) writeAt(path string, off int64, buf []byte, create bool) (int, error) {
	if !ValidPath(path) {
		return 0, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
	}
	data, ok := r.files[path]
	if !ok && !create {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if end := off + int64(len(buf)); end > int64(len(data)) {
		data = extend(data, end)
	}
	copy(data[off:], buf)
	r.files[path] = data
	r.writeBytes += int64(len(buf))
	return len(buf), nil
}

func (r *referenceFS) truncate(path string, n int64) error {
	data, ok := r.files[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if n < 0 {
		return fmt.Errorf("fs: negative size %d", n)
	}
	if n <= int64(len(data)) {
		r.files[path] = data[:n]
	} else {
		r.files[path] = extend(data, n)
	}
	return nil
}

// extend lengthens data to n bytes of which the new ones read as zeros,
// reallocating to at least double the capacity. Spare capacity may hold
// bytes from before a shrinking truncate, so a reslice clears them.
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

func (r *referenceFS) remove(path string) error {
	if _, ok := r.files[path]; !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	delete(r.files, path)
	return nil
}

func (r *referenceFS) list() []string {
	paths := make([]string, 0, len(r.files))
	for p := range r.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func (r *referenceFS) readFile(path string) ([]byte, error) {
	data, ok := r.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	return bytes.Clone(data), nil
}

func (r *referenceFS) writeFile(path string, data []byte) error {
	if !ValidPath(path) {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	r.files[path] = bytes.Clone(data)
	r.writeBytes += int64(len(data))
	return nil
}

// The FuzzFlatFSOps op codes.
const (
	opCreate = iota
	opWriteAt
	opReadAt
	opTruncate
	opWriteFile
	opRemove
	opReadFile
	numFSOps
)

// fsOpSize is the input bytes one op decodes from.
const fsOpSize = 8

// negOffBit in an op's first byte selects a negative offset or size from
// fuzzNegOffsets instead of the decoded one.
const negOffBit = 0x80

// fuzzPaths are the paths ops name; the empty one is invalid.
var fuzzPaths = []string{"/a", "/b", "/log", ""}

// fuzzNegOffsets are the negative offsets an op can carry: small ones, and
// the int64 values of page-cache offsets at and past 2^63.
var fuzzNegOffsets = []int64{-1, -SectorSize, math.MinInt64, math.MinInt64 + 4096}

// fsOp is one decoded op. Offsets and sizes reach eight sectors, lengths
// three, so writes straddle sector boundaries and land past EOF.
type fsOp struct {
	code   int
	path   string
	off    int64
	n      int
	pat    byte
	create bool
}

func decodeFSOps(data []byte) []fsOp {
	var ops []fsOp
	for ; len(data) >= fsOpSize; data = data[fsOpSize:] {
		op := fsOp{
			code:   int(data[0]&^negOffBit) % numFSOps,
			path:   fuzzPaths[int(data[1])%len(fuzzPaths)],
			off:    int64(binary.LittleEndian.Uint16(data[2:]) % (8*SectorSize + 1)),
			n:      int(binary.LittleEndian.Uint16(data[4:]) % (3*SectorSize + 1)),
			pat:    data[6],
			create: data[7]&1 == 1,
		}
		if data[0]&negOffBit != 0 {
			op.off = fuzzNegOffsets[int(data[7]>>1)%len(fuzzNegOffsets)]
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeFSOp is decodeFSOps' inverse for the seed corpus; a negative off
// must be one of fuzzNegOffsets.
func encodeFSOp(code int, path string, off int64, n int, pat byte, create bool) []byte {
	b := make([]byte, fsOpSize)
	b[0] = byte(code)
	b[1] = byte(slices.Index(fuzzPaths, path))
	if off < 0 {
		b[0] |= negOffBit
		b[7] = byte(slices.Index(fuzzNegOffsets, off)) << 1
	} else {
		binary.LittleEndian.PutUint16(b[2:], uint16(off))
	}
	binary.LittleEndian.PutUint16(b[4:], uint16(n))
	b[6] = pat
	if create {
		b[7] |= 1
	}
	return b
}

// opData is the data a write op carries: zeros for pattern 0; for an odd
// pattern, zeros but for the last byte, as a log record's trailing
// checksum; else a dense pattern.
func opData(op fsOp) []byte {
	b := make([]byte, op.n)
	switch {
	case op.pat == 0 || op.n == 0:
	case op.pat&1 == 1:
		b[op.n-1] = op.pat
	default:
		for i := range b {
			b[i] = op.pat ^ byte(i*31)
		}
	}
	return b
}

// nonZeroSectors returns the sectors a write of buf at off puts a non-zero
// byte on: the only sectors it may give storage.
func nonZeroSectors(off int64, buf []byte) map[int64]bool {
	out := make(map[int64]bool)
	for i, c := range buf {
		if c != 0 {
			out[(off+int64(i))/SectorSize] = true
		}
	}
	return out
}

// firstDiff describes where got first differs from the reference's want.
func firstDiff(got, want []byte) string {
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	if i == len(got) || i == len(want) {
		return fmt.Sprintf("%d bytes, reference %d", len(got), len(want))
	}
	return fmt.Sprintf("%#02x at byte %d, reference %#02x", got[i], i, want[i])
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error()
}

// replayFSOps runs ops on a fresh FlatFS and on the reference model and
// fails at the first op after which their errors, read bytes, sizes,
// contents, listings or byte counts differ. It also checks the sector table
// itself: a file holds one pointer per started sector, a sector gains
// storage only from a successful write that puts a non-zero byte on it, and
// only Create and WriteFile replace a file's storage; Remove and a
// shrinking Truncate drop only the sectors they cut off.
func replayFSOps(t *testing.T, ops []fsOp) {
	t.Helper()
	f, ref := New(), newReferenceFS()
	for i, op := range ops {
		before := make(map[string][]*[SectorSize]byte)
		for p, fl := range f.files {
			before[p] = slices.Clone(fl.sectors)
		}
		var got, want error
		var gotBuf, wantBuf []byte
		var wrote []byte // the data of a write op
		switch op.code {
		case opCreate:
			got, want = f.Create(op.path), ref.create(op.path)
		case opWriteAt:
			wrote = opData(op)
			var gn, wn int
			gn, got = f.WriteAt(op.path, op.off, wrote, op.create)
			wn, want = ref.writeAt(op.path, op.off, wrote, op.create)
			if gn != wn {
				t.Fatalf("op %d %+v: wrote %d, reference %d", i, op, gn, wn)
			}
		case opReadAt:
			// Junk in the buffers shows a read that skips sectors without storage.
			gotBuf, wantBuf = bytes.Repeat([]byte{0xee}, op.n), bytes.Repeat([]byte{0xee}, op.n)
			var gn, wn int
			gn, got = f.ReadAt(op.path, op.off, gotBuf)
			wn, want = ref.readAt(op.path, op.off, wantBuf)
			if gn != wn {
				t.Fatalf("op %d %+v: read %d bytes, reference %d", i, op, gn, wn)
			}
		case opTruncate:
			got, want = f.Truncate(op.path, op.off), ref.truncate(op.path, op.off)
		case opWriteFile:
			wrote = opData(op)
			got, want = f.WriteFile(op.path, wrote), ref.writeFile(op.path, wrote)
		case opRemove:
			got, want = f.Remove(op.path), ref.remove(op.path)
		case opReadFile:
			gotBuf, got = f.ReadFile(op.path)
			wantBuf, want = ref.readFile(op.path)
		}
		if !sameErr(got, want) {
			t.Fatalf("op %d %+v: error %v, reference %v", i, op, got, want)
		}
		if !bytes.Equal(gotBuf, wantBuf) {
			t.Fatalf("op %d %+v: read %s", i, op, firstDiff(gotBuf, wantBuf))
		}
		if gl, wl := f.List(), ref.list(); !slices.Equal(gl, wl) {
			t.Fatalf("op %d %+v: list %q, reference %q", i, op, gl, wl)
		}
		if gb, wb := f.BytesWritten(), ref.writeBytes; gb != wb {
			t.Fatalf("op %d %+v: BytesWritten %d, reference %d", i, op, gb, wb)
		}
		for _, p := range fuzzPaths {
			gs, gerr := f.Size(p)
			ws, werr := ref.size(p)
			if gs != ws || !sameErr(gerr, werr) {
				t.Fatalf("op %d %+v: Size(%q) = %d %v, reference %d %v", i, op, p, gs, gerr, ws, werr)
			}
			gd, _ := f.ReadFile(p)
			wd, _ := ref.readFile(p)
			if !bytes.Equal(gd, wd) {
				t.Fatalf("op %d %+v: %q holds %s", i, op, p, firstDiff(gd, wd))
			}
		}
		for p, fl := range f.files {
			if want := int((fl.size + SectorSize - 1) / SectorSize); len(fl.sectors) != want {
				t.Fatalf("op %d %+v: %q has %d sector pointers for %d bytes", i, op, p, len(fl.sectors), fl.size)
			}
			written := op.path == p && got == nil && wrote != nil
			var mayGain map[int64]bool
			if written {
				mayGain = nonZeroSectors(op.off, wrote)
				if op.code == opWriteFile {
					mayGain = nonZeroSectors(0, wrote)
				}
			}
			replaces := op.path == p && (op.code == opCreate || op.code == opWriteFile)
			prev := before[p]
			for s, sec := range fl.sectors {
				kept := s < len(prev) && prev[s] == sec
				switch {
				case sec != nil && !kept && !mayGain[int64(s)]:
					t.Fatalf("op %d %+v: %q sector %d gained storage", i, op, p, s)
				case s < len(prev) && prev[s] != nil && !kept && !replaces:
					t.Fatalf("op %d %+v: %q sector %d's storage was replaced or dropped", i, op, p, s)
				}
			}
		}
	}
}

// FuzzFlatFSOps replays decoded Create/WriteAt/ReadAt/Truncate/WriteFile/
// Remove/ReadFile sequences on FlatFS and on the flat-slice reference model
// it replaced, and requires identical results after every op. The seed
// corpus runs as a unit test.
func FuzzFlatFSOps(f *testing.F) {
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	// Writes straddling a sector boundary, a zero write past EOF that
	// leaves a hole, and reads of the hole into junk-filled buffers; then
	// zeros written over sectors that have storage.
	f.Add(seq(
		encodeFSOp(opWriteAt, "/a", SectorSize-20, 40, 0x5a, true),
		encodeFSOp(opWriteAt, "/a", 4*SectorSize, 100, 0, false),
		encodeFSOp(opReadAt, "/a", 0, 3*SectorSize, 0, false),
		encodeFSOp(opReadAt, "/a", 3*SectorSize+7, 2*SectorSize, 0, false),
		encodeFSOp(opWriteAt, "/a", SectorSize-10, 20, 0, false),
		encodeFSOp(opReadAt, "/a", SectorSize-20, 40, 0, false),
		encodeFSOp(opWriteAt, "/a", 2*SectorSize, 3*SectorSize, 0x33, false),
		encodeFSOp(opReadAt, "/a", 0, 3*SectorSize, 0, false),
	))
	// A shrink mid-sector, then growth by Truncate and by a write past the
	// new end: the cut tail reads as zeros both ways.
	f.Add(seq(
		encodeFSOp(opWriteAt, "/log", 0, 3*SectorSize, 0x42, true),
		encodeFSOp(opTruncate, "/log", SectorSize+100, 0, 0, false),
		encodeFSOp(opTruncate, "/log", 3*SectorSize, 0, 0, false),
		encodeFSOp(opReadAt, "/log", 0, 3*SectorSize, 0, false),
		encodeFSOp(opTruncate, "/log", 200, 0, 0, false),
		encodeFSOp(opWriteAt, "/log", 2*SectorSize, 10, 0x43, false),
		encodeFSOp(opReadAt, "/log", 0, 3*SectorSize, 0, false),
		encodeFSOp(opTruncate, "/log", 0, 0, 0, false),
		encodeFSOp(opTruncate, "/log", SectorSize, 0, 0, false),
		encodeFSOp(opReadAt, "/log", 0, SectorSize, 0, false),
	))
	// Refusals: create=false on a missing file, negative and huge offsets
	// with create set, a negative size, a bad path, and reads at and past
	// EOF.
	f.Add(seq(
		encodeFSOp(opWriteAt, "/b", 0, 10, 0x11, false),
		encodeFSOp(opWriteAt, "/b", -1, 10, 0x11, true),
		encodeFSOp(opWriteAt, "/b", math.MinInt64, 10, 0x11, true),
		encodeFSOp(opWriteAt, "/b", math.MinInt64+4096, 0, 0, true),
		encodeFSOp(opReadAt, "/b", 0, 10, 0, false),
		encodeFSOp(opWriteAt, "", 0, 10, 0x11, true),
		encodeFSOp(opCreate, "", 0, 0, 0, false),
		encodeFSOp(opWriteFile, "", 0, 10, 0x11, false),
		encodeFSOp(opWriteAt, "/b", 100, 10, 0x11, true),
		encodeFSOp(opReadAt, "/b", -SectorSize, 10, 0, false),
		encodeFSOp(opReadAt, "/b", 110, 10, 0, false),
		encodeFSOp(opReadAt, "/b", 105, 10, 0, false),
		encodeFSOp(opReadAt, "/b", 4000, 10, 0, false),
		encodeFSOp(opTruncate, "/b", -1, 0, 0, false),
		encodeFSOp(opTruncate, "/a", 10, 0, 0, false),
		encodeFSOp(opRemove, "/a", 0, 0, 0, false),
	))
	// Whole-file ops: WriteFile of WAL-shaped, zero and dense data over a
	// file with storage, Create truncating it, Remove, and ReadFile.
	f.Add(seq(
		encodeFSOp(opWriteAt, "/a", 0, 2*SectorSize, 0x22, true),
		encodeFSOp(opWriteFile, "/a", 0, 3*SectorSize, 0x07, false),
		encodeFSOp(opReadAt, "/a", 0, 3*SectorSize, 0, false),
		encodeFSOp(opWriteFile, "/a", 0, SectorSize+1, 0, false),
		encodeFSOp(opReadFile, "/a", 0, 0, 0, false),
		encodeFSOp(opWriteFile, "/b", 0, 100, 0x24, false),
		encodeFSOp(opCreate, "/b", 0, 0, 0, false),
		encodeFSOp(opReadFile, "/b", 0, 0, 0, false),
		encodeFSOp(opWriteAt, "/b", 50, 10, 0x26, false),
		encodeFSOp(opRemove, "/b", 0, 0, 0, false),
		encodeFSOp(opReadFile, "/b", 0, 0, 0, false),
		encodeFSOp(opRemove, "/b", 0, 0, 0, false),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		replayFSOps(t, decodeFSOps(data))
	})
}
