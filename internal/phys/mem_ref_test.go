package phys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// flatMem is the reference model FuzzMemOps replays every op on: one flat
// byte array, with Mem's protection, error and counter rules written out
// directly.
type flatMem struct {
	data  []byte
	prot  []bool
	stats Stats
}

func newFlatMem(frames int) *flatMem {
	return &flatMem{data: make([]byte, frames*PageSize), prot: make([]bool, frames)}
}

func (r *flatMem) check(addr uint64, n int) error {
	if n < 0 || addr > uint64(len(r.data)) || addr+uint64(n) > uint64(len(r.data)) {
		return ErrOutOfRange
	}
	return nil
}

func (r *flatMem) readAt(addr uint64, buf []byte) error {
	if err := r.check(addr, len(buf)); err != nil {
		return err
	}
	r.stats.ReadOps++
	r.stats.ReadBytes += int64(len(buf))
	copy(buf, r.data[addr:])
	return nil
}

// writeAt refuses the whole write if any frame it touches is protected,
// naming the first one. An empty write touches the frame holding addr, and
// none when addr is the end of memory.
func (r *flatMem) writeAt(addr uint64, buf []byte) error {
	if err := r.check(addr, len(buf)); err != nil {
		return err
	}
	end := addr + uint64(max(len(buf), 1))
	for f := FrameOf(addr); f < len(r.prot) && FrameAddr(f) < end; f++ {
		if r.prot[f] {
			r.stats.ProtFaults++
			return &ProtectionFault{Addr: addr, Frame: f}
		}
	}
	r.stats.WriteOps++
	r.stats.WriteBytes += int64(len(buf))
	copy(r.data[addr:], buf)
	return nil
}

func (r *flatMem) zero(f int) error {
	if f < 0 || f >= len(r.prot) {
		return ErrOutOfRange
	}
	if r.prot[f] {
		r.stats.ProtFaults++
		return &ProtectionFault{Addr: FrameAddr(f), Frame: f}
	}
	r.stats.WriteOps++
	r.stats.WriteBytes += PageSize
	clear(r.frame(f))
	return nil
}

func (r *flatMem) protect(f int, readOnly bool) error {
	if f < 0 || f >= len(r.prot) {
		return ErrOutOfRange
	}
	r.prot[f] = readOnly
	return nil
}

func (r *flatMem) frame(f int) []byte {
	return r.data[FrameAddr(f) : FrameAddr(f)+PageSize]
}

// The FuzzMemOps op codes.
const (
	opReadAt = iota
	opWriteAt
	opReadU64
	opWriteU64
	opZero
	opProtect
	opTakeAlias
	opAliasWrite
	opView   // later ops go through a fresh View of the Mem
	opAbsorb // the Mem absorbs the newest view; later ops go to the one before
	numMemOps
)

// memOpSize is the input bytes one op decodes from.
const memOpSize = 8

const (
	fuzzFrames  = 4
	aliasSlots  = 4
	hugeAddrBit = 0x80
)

// memOp is one decoded op. Addresses reach a frame past the end of memory
// (or far beyond it), lengths reach three frames, and frame numbers reach
// one past each end.
type memOp struct {
	code int
	addr uint64
	n    int
	pat  byte
	f    int
	arg  int // alias slot, or the Protect flag in bit 0
}

func decodeMemOps(data []byte) []memOp {
	var ops []memOp
	for ; len(data) >= memOpSize; data = data[memOpSize:] {
		op := memOp{
			code: int(data[0]&^hugeAddrBit) % numMemOps,
			addr: uint64(binary.LittleEndian.Uint16(data[1:])) % (fuzzFrames*PageSize + PageSize + 1),
			n:    int(binary.LittleEndian.Uint16(data[3:])) % (3*PageSize + 1),
			pat:  data[5],
			f:    int(data[6])%(fuzzFrames+2) - 1,
			arg:  int(data[7]),
		}
		if data[0]&hugeAddrBit != 0 {
			op.addr |= 1 << 63
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeMemOp is decodeMemOps' inverse for the seed corpus.
func encodeMemOp(code int, addr uint64, n int, pat byte, f, arg int) []byte {
	b := make([]byte, memOpSize)
	b[0] = byte(code)
	if addr >= 1<<63 {
		b[0] |= hugeAddrBit
	}
	binary.LittleEndian.PutUint16(b[1:], uint16(addr))
	binary.LittleEndian.PutUint16(b[3:], uint16(n))
	b[5], b[6], b[7] = pat, byte(f+1), byte(arg)
	return b
}

// fill writes a pattern seeded by pat into b; pat 0 writes zeros.
func fill(b []byte, pat byte) {
	for i := range b {
		if pat != 0 {
			b[i] = pat ^ byte(i*31)
		} else {
			b[i] = 0
		}
	}
}

func sameMemErr(got, want error) bool {
	if want == nil || got == nil {
		return got == nil && want == nil
	}
	var gpf, wpf *ProtectionFault
	if errors.As(want, &wpf) {
		return errors.As(got, &gpf) && *gpf == *wpf
	}
	return errors.Is(got, want)
}

// wordOf is the value opWriteU64 writes: zero for pattern 0, like fill.
func wordOf(op memOp) uint64 {
	if op.pat == 0 {
		return 0
	}
	return uint64(op.pat)*0x0101010101010101 ^ op.addr
}

// mayGainStorage reports whether a successful op may give frame f
// storage: only Frame(f), and a write that puts a non-zero byte on f.
func mayGainStorage(op memOp, f int) bool {
	var buf []byte
	switch op.code {
	case opWriteAt:
		buf = make([]byte, op.n)
		fill(buf, op.pat)
	case opWriteU64:
		buf = binary.LittleEndian.AppendUint64(nil, wordOf(op))
	case opTakeAlias:
		return op.f == f
	}
	lo, hi := FrameAddr(f), FrameAddr(f)+PageSize
	for i, c := range buf {
		if a := op.addr + uint64(i); c != 0 && a >= lo && a < hi {
			return true
		}
	}
	return false
}

// contents returns m's bytes without going through the counted accessors.
func contents(m *Mem) []byte {
	out := make([]byte, m.Size())
	for f, p := range m.frames {
		if p != nil {
			copy(out[FrameAddr(f):], p[:])
		}
	}
	return out
}

// sumStats returns the field-wise sum of ss.
func sumStats(ss ...Stats) Stats {
	var out Stats
	for _, s := range ss {
		out.ReadOps += s.ReadOps
		out.ReadBytes += s.ReadBytes
		out.WriteOps += s.WriteOps
		out.WriteBytes += s.WriteBytes
		out.ProtFaults += s.ProtFaults
	}
	return out
}

// replayMemOps runs ops on a fresh Mem and on the flat reference model and
// fails at the first op after which their errors, read bytes, memory,
// protection, aliases or Stats differ. Ops after opView go through a stack
// of views, which share storage and protection with the Mem both ways, so
// the Mem and the current view must both show the reference's memory and
// protection, and the Mem's Stats plus every unabsorbed view's must sum to
// the reference's. It also checks the sparse storage itself: no op
// replaces or drops a frame's storage, and only a Frame call, or a
// successful write that puts a non-zero byte on a frame, gives it storage.
func replayMemOps(t *testing.T, ops []memOp) {
	t.Helper()
	root, ref := NewMem(fuzzFrames*PageSize), newFlatMem(fuzzFrames)
	m := root // the Mem or view the next op goes through
	var views []*Mem
	var aliases, refAliases [aliasSlots][]byte
	for i, op := range ops {
		var got, want error
		var gotBuf, wantBuf []byte
		before := append([]*[PageSize]byte(nil), root.frames...)
		switch op.code {
		case opReadAt:
			// Stale bytes in the buffers show a read that skips untouched frames.
			gotBuf, wantBuf = make([]byte, op.n), make([]byte, op.n)
			fill(gotBuf, 0xee)
			fill(wantBuf, 0xee)
			got, want = m.ReadAt(op.addr, gotBuf), ref.readAt(op.addr, wantBuf)
		case opWriteAt:
			buf := make([]byte, op.n)
			fill(buf, op.pat)
			got, want = m.WriteAt(op.addr, buf), ref.writeAt(op.addr, buf)
		case opReadU64:
			var v uint64
			v, got = m.ReadU64(op.addr)
			gotBuf = binary.LittleEndian.AppendUint64(nil, v)
			wantBuf = make([]byte, 8)
			if want = ref.readAt(op.addr, wantBuf); want != nil {
				clear(wantBuf)
			}
		case opWriteU64:
			v := wordOf(op)
			got = m.WriteU64(op.addr, v)
			want = ref.writeAt(op.addr, binary.LittleEndian.AppendUint64(nil, v))
		case opZero:
			got, want = m.Zero(op.f), ref.zero(op.f)
		case opProtect:
			got, want = m.Protect(op.f, op.arg&1 == 1), ref.protect(op.f, op.arg&1 == 1)
		case opTakeAlias:
			var alias []byte
			alias, got = m.Frame(op.f)
			if op.f < 0 || op.f >= fuzzFrames {
				want = ErrOutOfRange
			} else {
				aliases[op.arg%aliasSlots], refAliases[op.arg%aliasSlots] = alias, ref.frame(op.f)
			}
		case opAliasWrite:
			slot := op.arg % aliasSlots
			if aliases[slot] == nil {
				continue
			}
			off := int(op.addr % PageSize)
			n := min(op.n, PageSize-off)
			fill(aliases[slot][off:off+n], op.pat)
			fill(refAliases[slot][off:off+n], op.pat)
		case opView:
			views = append(views, root.View())
			m = views[len(views)-1]
		case opAbsorb:
			if len(views) == 0 {
				continue
			}
			root.Absorb(views[len(views)-1])
			views = views[:len(views)-1]
			m = root
			if len(views) > 0 {
				m = views[len(views)-1]
			}
		}
		if !sameMemErr(got, want) {
			t.Fatalf("op %d %+v: error %v, reference %v", i, op, got, want)
		}
		if !bytes.Equal(gotBuf, wantBuf) {
			t.Fatalf("op %d %+v: read %x, reference %x", i, op, gotBuf, wantBuf)
		}
		for _, mv := range []*Mem{root, m} {
			if !bytes.Equal(contents(mv), ref.data) {
				t.Fatalf("op %d %+v: memory differs from the reference", i, op)
			}
			for f := -1; f <= fuzzFrames; f++ {
				if mv.Protected(f) != (f >= 0 && f < fuzzFrames && ref.prot[f]) {
					t.Fatalf("op %d %+v: Protected(%d) = %v", i, op, f, mv.Protected(f))
				}
			}
		}
		for s := range aliases {
			if !bytes.Equal(aliases[s], refAliases[s]) {
				t.Fatalf("op %d %+v: alias %d no longer shows its frame", i, op, s)
			}
		}
		all := []Stats{root.Stats()}
		for _, v := range views {
			all = append(all, v.Stats())
		}
		if sumStats(all...) != ref.stats {
			t.Fatalf("op %d %+v: stats %+v, reference %+v", i, op, all, ref.stats)
		}
		for f, p := range root.frames {
			switch {
			case before[f] != nil && p != before[f]:
				t.Fatalf("op %d %+v: frame %d's storage was replaced or dropped", i, op, f)
			case before[f] == nil && p != nil && (got != nil || !mayGainStorage(op, f)):
				t.Fatalf("op %d %+v: frame %d gained storage", i, op, f)
			}
		}
	}
}

// FuzzMemOps replays decoded ReadAt/WriteAt/ReadU64/WriteU64/Zero/Protect
// sequences, writes through Frame aliases and View/Absorb on a four-frame
// Mem and on a flat byte-array reference model, and requires identical
// results after every op. The seed corpus runs as a unit test.
func FuzzMemOps(f *testing.F) {
	const end = fuzzFrames * PageSize
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	// Reads and writes spanning frame boundaries, into untouched frames.
	f.Add(seq(
		encodeMemOp(opWriteAt, PageSize-100, 200, 0x5a, 0, 0),
		encodeMemOp(opReadAt, PageSize-150, 2*PageSize+300, 0, 0, 0),
		encodeMemOp(opWriteAt, 0, end, 0x11, 0, 0),
		encodeMemOp(opReadAt, 0, end, 0, 0, 0),
		encodeMemOp(opWriteAt, 3*PageSize+1, PageSize-1, 0, 0, 0),
	))
	// Zero-length and out-of-range accesses, including an empty write at
	// the end of memory and addresses far past it.
	f.Add(seq(
		encodeMemOp(opReadAt, 0, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, PageSize, 0, 0x22, 0, 0),
		encodeMemOp(opReadAt, end, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, end, 0, 0x22, 0, 0),
		encodeMemOp(opReadAt, end+1, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, end-8, 16, 0x22, 0, 0),
		encodeMemOp(opReadAt, end-8, 16, 0, 0, 0),
		encodeMemOp(opReadAt, 1<<63|5, 4, 0, 0, 0),
		encodeMemOp(opWriteAt, 1<<63|5, 4, 0x22, 0, 0),
		encodeMemOp(opReadU64, end-4, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, end-4, 0, 0x33, 0, 0),
	))
	// Words straddling a frame boundary, then Zero of written, untouched
	// and out-of-range frames.
	f.Add(seq(
		encodeMemOp(opWriteU64, PageSize-4, 0, 0x44, 0, 0),
		encodeMemOp(opReadU64, PageSize-4, 0, 0, 0, 0),
		encodeMemOp(opReadU64, 2*PageSize-4, 0, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 0, 0),
		encodeMemOp(opReadU64, PageSize-4, 0, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 2, 0),
		encodeMemOp(opZero, 0, 0, 0, -1, 0),
		encodeMemOp(opZero, 0, 0, 0, fuzzFrames, 0),
	))
	// Protection: spanning writes name the first protected frame, empty
	// writes into a protected frame fault, Zero faults, unprotect heals.
	f.Add(seq(
		encodeMemOp(opProtect, 0, 0, 0, 2, 1),
		encodeMemOp(opWriteAt, PageSize+10, 2*PageSize, 0x55, 0, 0),
		encodeMemOp(opWriteAt, 2*PageSize+7, 0, 0x55, 0, 0),
		encodeMemOp(opWriteU64, 3*PageSize-4, 0, 0x55, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 2, 0),
		encodeMemOp(opProtect, 0, 0, 0, 1, 1),
		encodeMemOp(opWriteAt, PageSize-1, 2*PageSize, 0x55, 0, 0),
		encodeMemOp(opProtect, 0, 0, 0, -1, 1),
		encodeMemOp(opProtect, 0, 0, 0, fuzzFrames, 1),
		encodeMemOp(opProtect, 0, 0, 0, 2, 0),
		encodeMemOp(opProtect, 0, 0, 0, 1, 0),
		encodeMemOp(opWriteAt, PageSize+10, 2*PageSize, 0x55, 0, 0),
	))
	// Aliases taken before and after writes keep showing their frame, and
	// writes through them are seen by reads.
	f.Add(seq(
		encodeMemOp(opTakeAlias, 0, 0, 0, 3, 0),
		encodeMemOp(opTakeAlias, 0, 0, 0, 3, 1),
		encodeMemOp(opWriteAt, 3*PageSize+100, 50, 0x66, 0, 0),
		encodeMemOp(opAliasWrite, 200, 300, 0x77, 0, 0),
		encodeMemOp(opReadAt, 3*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 3, 0),
		encodeMemOp(opAliasWrite, PageSize-10, 100, 0x78, 0, 1),
		encodeMemOp(opWriteAt, 0, 2*PageSize, 0x79, 0, 0),
		encodeMemOp(opTakeAlias, 0, 0, 0, 1, 2),
		encodeMemOp(opAliasWrite, 0, PageSize, 0, 0, 2),
		encodeMemOp(opReadAt, PageSize-5, 10, 0, 0, 0),
		encodeMemOp(opTakeAlias, 0, 0, 0, -1, 3),
		encodeMemOp(opTakeAlias, 0, 0, 0, fuzzFrames, 3),
		encodeMemOp(opAliasWrite, 0, 10, 0x7a, 0, 3),
	))
	// Aligned words on the one-frame path: the last word of a frame and of
	// memory, Size() and far past it, a never-written frame (reads 0, gains
	// no storage) and a protected one (the fault counts, no storage).
	f.Add(seq(
		encodeMemOp(opReadU64, PageSize-8, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, PageSize-8, 0, 0x81, 0, 0),
		encodeMemOp(opReadU64, PageSize-8, 0, 0, 0, 0),
		encodeMemOp(opReadU64, PageSize, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, end-8, 0, 0x82, 0, 0),
		encodeMemOp(opReadU64, end-8, 0, 0, 0, 0),
		encodeMemOp(opReadU64, end, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, end, 0, 0x83, 0, 0),
		encodeMemOp(opReadU64, 1<<63|8, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 1<<63|8, 0, 0x83, 0, 0),
		encodeMemOp(opReadU64, 2*PageSize+64, 0, 0, 0, 0),
		encodeMemOp(opProtect, 0, 0, 0, 1, 1),
		encodeMemOp(opWriteU64, PageSize+16, 0, 0x84, 0, 0),
		encodeMemOp(opReadU64, PageSize+16, 0, 0, 0, 0),
		encodeMemOp(opProtect, 0, 0, 0, 1, 0),
		encodeMemOp(opWriteU64, PageSize+16, 0, 0x85, 0, 0),
	))
	// Views: every counter moves through two stacked views and is absorbed
	// back; writes, protection and aliases cross between the Mem and its
	// views both ways; an absorb with no view is a no-op.
	f.Add(seq(
		encodeMemOp(opAbsorb, 0, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, 10, 20, 0x91, 0, 0),
		encodeMemOp(opView, 0, 0, 0, 0, 0),
		encodeMemOp(opReadAt, 0, 40, 0, 0, 0),
		encodeMemOp(opReadU64, 8, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, PageSize-3, 9, 0x92, 0, 0),
		encodeMemOp(opWriteU64, 2*PageSize, 0, 0x93, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 3, 0),
		encodeMemOp(opProtect, 0, 0, 0, 2, 1),
		encodeMemOp(opWriteU64, 2*PageSize+8, 0, 0x94, 0, 0),
		encodeMemOp(opTakeAlias, 0, 0, 0, 2, 0),
		encodeMemOp(opView, 0, 0, 0, 0, 0),
		encodeMemOp(opAliasWrite, 100, 8, 0x95, 0, 0),
		encodeMemOp(opReadU64, 2*PageSize+104, 0, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 2, 0),
		encodeMemOp(opWriteAt, 3*PageSize, 8, 0x96, 0, 0),
		encodeMemOp(opAbsorb, 0, 0, 0, 0, 0),
		encodeMemOp(opProtect, 0, 0, 0, 2, 0),
		encodeMemOp(opReadAt, 2*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opAbsorb, 0, 0, 0, 0, 0),
		encodeMemOp(opReadU64, 2*PageSize, 0, 0, 0, 0),
		encodeMemOp(opView, 0, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 3*PageSize-8, 0, 0x97, 0, 0),
	))
	// Zero writes give no storage: a zero WriteAt and zero words (aligned
	// and not) onto never-written frames; a zero write straddling a frame
	// with storage and one without; a zero write, then a partial non-zero
	// one; a zero write, then a Frame alias written through.
	f.Add(seq(
		encodeMemOp(opWriteAt, PageSize+100, 300, 0, 0, 0),
		encodeMemOp(opWriteU64, 0, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 2*PageSize+4, 0, 0, 0, 0),
		encodeMemOp(opReadAt, 0, 3*PageSize, 0, 0, 0),
		encodeMemOp(opWriteAt, 2*PageSize-50, 20, 0x31, 0, 0),
		encodeMemOp(opWriteAt, 2*PageSize-40, PageSize, 0, 0, 0),
		encodeMemOp(opReadAt, 2*PageSize-60, 100, 0, 0, 0),
		encodeMemOp(opWriteAt, 3*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opWriteAt, 3*PageSize+1000, 10, 0x32, 0, 0),
		encodeMemOp(opReadAt, 3*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opWriteAt, 0, PageSize, 0, 0, 0),
		encodeMemOp(opTakeAlias, 0, 0, 0, 0, 0),
		encodeMemOp(opAliasWrite, 8, 8, 0x33, 0, 0),
		encodeMemOp(opReadU64, 8, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 16, 0, 0, 0, 0),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		replayMemOps(t, decodeMemOps(data))
	})
}
