package layout

import (
	"encoding/binary"
	"fmt"
)

// Candidate index
//
// The main kernel maintains a compact candidate index in the crash
// reservation's tail, between the trace ring and the metrics segment: one
// header slot plus one entry slot per live process, each a tail frame
// (frame.go). The crash kernel salvages the index to seed resurrection
// scanners directly, instead of walking the dead kernel's whole process
// list record by record — the discovery step that dominates the prologue at
// fleet scale. The index is strictly an accelerator: every entry still
// points at the authoritative process descriptor, which the scanner
// re-reads and validates, and a missing or corrupt index degrades to the
// full walk.
//
// The header names the index's generation; entries of any other generation
// are stale. An entry frame with the dead flag is a tombstone. The index is
// a sparse span: empty slots cost a two-byte read.

// IndexSlotSize is the fixed byte size of every index slot, header
// included. An entry payload is at most 4+8+3*(1+maxIndexString) = 207
// bytes framed to 221, so the worst case fits with headroom.
const IndexSlotSize = 256

// IndexVersion is the header format version.
const IndexVersion = 1

// indexFlagDead marks a tombstoned entry slot (process exited).
const indexFlagDead = 1

// maxIndexString bounds each entry string so the framed entry always fits
// its 256-byte slot (and the 1-byte length prefix cannot wrap). Matches the
// kernel's own process-name limit.
const maxIndexString = 64

// IndexHeader is the decoded slot-0 header.
type IndexHeader struct {
	Version    uint16
	Generation uint32
	Slots      uint32
}

// IndexEntry is one decoded candidate pointer.
type IndexEntry struct {
	PID       uint32
	Addr      uint64 // physical address of the TypeProc descriptor record
	Gen       uint32 // generation the entry was written under
	Name      string
	Program   string
	CrashProc string
}

func (h *IndexHeader) encode() []byte {
	buf := make([]byte, 2+4)
	binary.LittleEndian.PutUint16(buf[0:], h.Version)
	binary.LittleEndian.PutUint32(buf[2:], h.Slots)
	return buf
}

func decodeIndexHeader(f Frame) (IndexHeader, bool) {
	if len(f.Payload) < 6 {
		return IndexHeader{}, false
	}
	return IndexHeader{
		Version:    binary.LittleEndian.Uint16(f.Payload[0:]),
		Generation: f.Gen,
		Slots:      binary.LittleEndian.Uint32(f.Payload[2:]),
	}, true
}

func (e *IndexEntry) encode() []byte {
	buf := make([]byte, 0, 4+8+3*(1+maxIndexString))
	buf = binary.LittleEndian.AppendUint32(buf, e.PID)
	buf = binary.LittleEndian.AppendUint64(buf, e.Addr)
	for _, s := range []string{e.Name, e.Program, e.CrashProc} {
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// indexSlot is one decoded entry slot: an entry or its tombstone.
type indexSlot struct {
	IndexEntry
	dead bool
}

func decodeIndexEntry(f Frame) (indexSlot, bool) {
	p := f.Payload
	if len(p) < 12 {
		return indexSlot{}, false
	}
	e := indexSlot{dead: f.Flags&indexFlagDead != 0, IndexEntry: IndexEntry{
		PID:  binary.LittleEndian.Uint32(p[0:]),
		Addr: binary.LittleEndian.Uint64(p[4:]),
		Gen:  f.Gen,
	}}
	off := 12
	for _, dst := range []*string{&e.Name, &e.Program, &e.CrashProc} {
		if off >= len(p) || off+1+int(p[off]) > len(p) {
			return indexSlot{}, false
		}
		n := int(p[off])
		*dst = string(p[off+1 : off+1+n])
		off += 1 + n
	}
	return e, true
}

// IndexWriter maintains the candidate index in a fixed region of simulated
// physical memory on behalf of the main kernel. All methods write through
// immediately so the index in the protected reservation is always current
// at crash time. The writer's in-Go bookkeeping (slot occupancy) is a
// write-through cache, exactly like the kernel's process map.
type IndexWriter struct {
	mem   MemoryAccessor
	base  uint64
	slots int
	gen   uint32
	byPID map[uint32]int // pid -> occupied entry slot
	used  []bool         // slot occupancy; slot 0 is the header
}

// NewIndexWriter initialises a writer over [base, base+slots*IndexSlotSize)
// and seals a fresh header, zeroing every entry slot (the reservation may
// hold a previous generation's bytes).
func NewIndexWriter(m MemoryAccessor, base uint64, slots int, gen uint32) (*IndexWriter, error) {
	if slots < 2 {
		return nil, fmt.Errorf("layout: index needs at least 2 slots, got %d", slots)
	}
	w := &IndexWriter{mem: m, base: base, slots: slots, gen: gen,
		byPID: make(map[uint32]int), used: make([]bool, slots)}
	zero := make([]byte, IndexSlotSize)
	for i := 1; i < slots; i++ {
		if err := m.WriteAt(w.slotAddr(i), zero); err != nil {
			return nil, err
		}
	}
	hdr := &IndexHeader{Version: IndexVersion, Slots: uint32(slots)}
	if err := w.seal(0, KindIndexHeader, 0, hdr.encode()); err != nil {
		return nil, err
	}
	w.used[0] = true
	return w, nil
}

// Capacity returns the number of entry slots.
func (w *IndexWriter) Capacity() int { return w.slots - 1 }

func (w *IndexWriter) slotAddr(i int) uint64 {
	return w.base + uint64(i)*IndexSlotSize
}

// seal writes one slot's frame, trimmed to its framed bytes.
func (w *IndexWriter) seal(slot int, kind FrameKind, flags uint8, payload []byte) error {
	img := SealFrame(kind, flags, w.gen, IndexSlotSize, payload)
	return w.mem.WriteAt(w.slotAddr(slot), img[:FrameOverhead+len(payload)])
}

// Put records (or refreshes) the index entry for a process. When the index
// is full the put is dropped — the entry's process is still discovered by
// the full-walk fallback, so capacity pressure only costs speed, never
// candidates — and ErrIndexFull is returned so callers can count it.
func (w *IndexWriter) Put(pid uint32, addr uint64, name, program, crashProc string) error {
	for _, s := range []string{name, program, crashProc} {
		if len(s) > maxIndexString {
			return fmt.Errorf("layout: index string %q exceeds %d bytes", s, maxIndexString)
		}
	}
	slot, ok := w.byPID[pid]
	if !ok {
		slot = -1
		for i := 1; i < w.slots; i++ {
			if !w.used[i] {
				slot = i
				break
			}
		}
		if slot < 0 {
			return ErrIndexFull
		}
	}
	e := &IndexEntry{PID: pid, Addr: addr, Name: name, Program: program, CrashProc: crashProc}
	if err := w.seal(slot, KindIndexEntry, 0, e.encode()); err != nil {
		return err
	}
	w.used[slot] = true
	w.byPID[pid] = slot
	return nil
}

// Delete tombstones a process's entry; unknown PIDs are a no-op (the
// process may have arrived while the index was full).
func (w *IndexWriter) Delete(pid uint32) error {
	slot, ok := w.byPID[pid]
	if !ok {
		return nil
	}
	e := &IndexEntry{PID: pid}
	if err := w.seal(slot, KindIndexEntry, indexFlagDead, e.encode()); err != nil {
		return err
	}
	delete(w.byPID, pid)
	w.used[slot] = false
	return nil
}

// ErrIndexFull reports a dropped Put on a full index.
var ErrIndexFull = fmt.Errorf("layout: candidate index full")

// IndexSalvage is the result of parsing a (possibly damaged) candidate
// index out of a dead kernel's reservation.
type IndexSalvage struct {
	Header  IndexHeader
	Entries []IndexEntry // live entries in slot order
	// Skipped counts slots that were neither empty nor valid live entries
	// of the header's generation: corrupt frames, stale generations,
	// tombstones of other generations. Resurrection reports it so a
	// partially-wrecked index is visible in the attribution.
	Skipped int
}

// ParseIndex decodes the candidate index at [base, base+size). A header
// failure is fatal (the caller falls back to the full process-list walk);
// entry-slot damage is skipped and counted.
func ParseIndex(m Reader, base uint64, size int, verifyCRC bool) (*IndexSalvage, error) {
	if size < 2*IndexSlotSize {
		return nil, fmt.Errorf("layout: index region too small (%d bytes)", size)
	}
	span := Span{Base: base, Count: 1, Size: IndexSlotSize, Kind: KindIndexHeader, Sparse: true}
	hdrs, _ := SalvageFrames(m, span, verifyCRC, decodeIndexHeader)
	if len(hdrs) != 1 {
		return nil, fmt.Errorf("layout: candidate index header at %#x is damaged", base)
	}
	hdr := hdrs[0]
	if hdr.Version != IndexVersion {
		return nil, fmt.Errorf("layout: candidate index header at %#x: unsupported version %d", base, hdr.Version)
	}
	slots := int(hdr.Slots)
	if slots < 2 || slots*IndexSlotSize > size {
		return nil, fmt.Errorf("layout: candidate index header at %#x: slot count %d does not fit region", base, hdr.Slots)
	}
	span.Base, span.Count, span.Kind, span.Gen = base+IndexSlotSize, slots-1, KindIndexEntry, hdr.Generation
	entries, s := SalvageFrames(m, span, verifyCRC, decodeIndexEntry)
	sal := &IndexSalvage{Header: hdr, Skipped: s.Damaged + s.Stale}
	for _, e := range entries {
		if !e.dead { // a tombstone of the current generation is clean
			sal.Entries = append(sal.Entries, e.IndexEntry)
		}
	}
	return sal, nil
}
