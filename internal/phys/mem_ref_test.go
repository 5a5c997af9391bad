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
	opCopyFrame
	opView     // later ops go through a fresh View of the Mem
	opAbsorb   // the Mem absorbs the newest view; later ops go to the one before
	opGenerate // Generate from an offset with one of genPatterns, which the reference writes
	opReadGenerated
	numMemOps
)

// memOpSize is the input bytes one op decodes from.
const memOpSize = 8

const (
	// fuzzFrames spans one whole chunk and part of a second.
	fuzzFrames  = chunkFrames + 4
	hugeAddrBit = 0x80
	// highAddrBit is bit 16 of the op's address.
	highAddrBit = 0x40
	// sparsePat and the patterns above it fill only some bytes; see fill.
	sparsePat = 0xf0
)

// genPatterns are the patterns opGenerate gives and opReadGenerated names:
// one with a non-zero byte on every sector, one that is zero on every
// third sector and on part of the others, and one all zero. Each byte
// depends on its address, frame number included, so bytes computed for the
// wrong address show.
var genPatterns = [...]*Pattern{
	NewPattern(func(a uint64) byte { return 0x3c ^ byte(a*31) ^ byte(a/PageSize) }),
	NewPattern(func(a uint64) byte {
		if a%768 >= 256 {
			return 0
		}
		return 0xf3 ^ byte(a*7) ^ byte(a/PageSize)
	}),
	NewPattern(func(uint64) byte { return 0 }),
}

// memOp is one decoded op. Addresses reach a frame past the end of memory
// (or far beyond it), lengths reach three frames, and frame numbers reach
// one past each end. opGenerate takes its offset from the length and
// opCopyFrame from the address (genOff, copyOff).
type memOp struct {
	code int
	addr uint64
	n    int
	pat  byte
	f    int
	arg  int // the Protect flag in bit 0; the pattern for opGenerate and opReadGenerated
}

func decodeMemOps(data []byte) []memOp {
	var ops []memOp
	for ; len(data) >= memOpSize; data = data[memOpSize:] {
		addr := uint64(binary.LittleEndian.Uint16(data[1:]))
		if data[0]&highAddrBit != 0 {
			addr |= 1 << 16
		}
		op := memOp{
			code: int(data[0]&^(hugeAddrBit|highAddrBit)) % numMemOps,
			addr: addr % (fuzzFrames*PageSize + PageSize + 1),
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
	if addr&(1<<16) != 0 {
		b[0] |= highAddrBit
	}
	binary.LittleEndian.PutUint16(b[1:], uint16(addr))
	binary.LittleEndian.PutUint16(b[3:], uint16(n))
	b[5], b[6], b[7] = pat, byte(f+1), byte(arg)
	return b
}

// fill writes a pattern seeded by pat into b; pat 0 writes zeros, and a
// pat of sparsePat or above writes the pattern into only the first 256 of
// every 768 bytes, so a page-sized write puts non-zero bytes on some of a
// frame's sectors and leaves others all zero.
func fill(b []byte, pat byte) {
	for i := range b {
		if pat != 0 && (pat < sparsePat || i%768 < 256) {
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

// genPattern is the pattern opGenerate gives and opReadGenerated names.
func genPattern(op memOp) *Pattern { return genPatterns[op.arg%len(genPatterns)] }

// genOff is the offset opGenerate generates from; PageSize, past the
// frame's last byte, is refused.
func (op memOp) genOff() int { return op.n % (PageSize + 1) }

// copyOff is the offset opCopyFrame copies from; PageSize copies nothing,
// and PageSize+1 is refused.
func (op memOp) copyOff() int { return int(op.addr % (PageSize + 2)) }

// written returns the address and bytes op writes if it succeeds, and
// whether it is a write at all: WriteAt's, WriteU64's and Generate's,
// which the model treats as a WriteAt of the pattern's bytes from the
// offset to the frame's end.
func written(op memOp) (addr uint64, buf []byte, ok bool) {
	switch op.code {
	case opWriteAt:
		buf = make([]byte, op.n)
		fill(buf, op.pat)
		return op.addr, buf, true
	case opWriteU64:
		return op.addr, binary.LittleEndian.AppendUint64(nil, wordOf(op)), true
	case opGenerate:
		off := min(op.genOff(), PageSize)
		buf = make([]byte, PageSize-off)
		genPattern(op).fill(FrameAddr(op.f)+uint64(off), buf)
		return FrameAddr(op.f) + uint64(off), buf, true
	}
	return 0, nil, false
}

// stored returns the address and bytes of op's write that storage takes
// as written bytes: all of a WriteAt's or WriteU64's, and of a Generate's
// only the part of the sector it covers in part.
func stored(op memOp) (addr uint64, buf []byte) {
	addr, buf, _ = written(op)
	if op.code == opGenerate {
		buf = buf[:min(len(buf), (SectorSize-op.genOff()%SectorSize)%SectorSize)]
	}
	return addr, buf
}

// contents returns m's bytes without going through the counted accessors,
// sector by sector: a sector's storage (a dense frame's sectors are slices
// of its page), its pattern's bytes if it is generated, and zeros
// otherwise.
func contents(m *Mem) []byte {
	out := make([]byte, m.Size())
	for f := 0; f < m.NumFrames(); f++ {
		fr := m.record(f)
		if fr == nil {
			continue
		}
		for i, sec := range fr.sec {
			a := FrameAddr(f) + uint64(i*SectorSize)
			switch {
			case sec != nil:
				copy(out[a:], sec[:])
			case fr.genMask&(1<<i) != 0:
				fr.gen.fill(a, out[a:][:SectorSize])
			}
		}
	}
	return out
}

// storage is a copy of one frame's storage pointers, its pattern, its
// generated sectors and its chunk.
type storage struct {
	chunk   *chunk
	page    *[PageSize]byte
	sec     [sectorsPerFrame]*[SectorSize]byte
	gen     *Pattern
	genMask uint8
}

func storageOf(m *Mem) []storage {
	out := make([]storage, m.NumFrames())
	for f := range out {
		out[f].chunk = m.chunks[f/chunkFrames]
		if fr := m.record(f); fr != nil {
			out[f].page, out[f].sec, out[f].gen, out[f].genMask = fr.page, fr.sec, fr.gen, fr.genMask
		}
	}
	return out
}

// The states of a sector's storage.
const (
	sectorEmpty = iota
	sectorOwned
	sectorGenerated
)

// shape is a frame's storage as the rules see it: each sector's state, the
// pattern its generated sectors read as, and whether it is one page.
type shape struct {
	state [sectorsPerFrame]int
	gen   *Pattern
	dense bool
}

func shapeOf(s storage) shape {
	sh := shape{gen: s.gen, dense: s.page != nil}
	for i := range sh.state {
		switch {
		case s.sec[i] != nil:
			sh.state[i] = sectorOwned
		case s.genMask&(1<<i) != 0:
			sh.state[i] = sectorGenerated
		}
	}
	return sh
}

// all reports whether every sector of sh is in state st.
func (sh shape) all(st int) bool {
	for _, s := range sh.state {
		if s != st {
			return false
		}
	}
	return true
}

// wantShapes applies a successful op's storage rules to the frames' shapes
// before it:
//   - a write gives storage to every generated sector it touches and to
//     every empty sector it puts a non-zero byte on; a frame with no
//     storage and no generated sector gets one page if the write puts a
//     non-zero byte on every sector;
//   - Generate first writes the sector it covers in part, as such a write.
//     Each sector it covers whole that has no storage becomes generated by
//     its pattern, and if that changes the frame's pattern, the sectors the
//     old pattern still generates get storage;
//   - Zero ends the frame's generation.
func wantShapes(op memOp, before []storage) []shape {
	want := make([]shape, len(before))
	for f := range before {
		want[f] = shapeOf(before[f])
	}
	addr, buf := stored(op)
	var touched, nonZero [fuzzFrames]uint8
	for i, c := range buf {
		if a := addr + uint64(i); a < fuzzFrames*PageSize {
			bit := uint8(1) << (a % PageSize / SectorSize)
			touched[FrameOf(a)] |= bit
			if c != 0 {
				nonZero[FrameOf(a)] |= bit
			}
		}
	}
	for f := range want {
		sh := &want[f]
		if touched[f] == 0 {
			continue
		}
		if sh.all(sectorEmpty) && nonZero[f] == AllSectors {
			sh.dense = true
		}
		for i, st := range sh.state {
			if bit := uint8(1) << i; st == sectorGenerated && touched[f]&bit != 0 || st == sectorEmpty && nonZero[f]&bit != 0 {
				sh.state[i] = sectorOwned
			}
		}
	}
	switch {
	case op.code == opZero:
		for i, st := range want[op.f].state {
			if st == sectorGenerated {
				want[op.f].state[i] = sectorEmpty
			}
		}
	case op.code == opGenerate:
		sh, p := &want[op.f], genPattern(op)
		var fresh [sectorsPerFrame]bool
		for i := (op.genOff() + SectorSize - 1) / SectorSize; i < sectorsPerFrame; i++ {
			fresh[i] = sh.state[i] != sectorOwned
		}
		if fresh != [sectorsPerFrame]bool{} {
			for i, st := range sh.state {
				if st == sectorGenerated && !fresh[i] && sh.gen != p {
					sh.state[i] = sectorOwned
				}
				if fresh[i] {
					sh.state[i] = sectorGenerated
				}
			}
			sh.gen = p
		}
	}
	for f := range want {
		hasGen := false
		for _, st := range want[f].state {
			hasGen = hasGen || st == sectorGenerated
		}
		if !hasGen {
			want[f].gen = nil
		}
	}
	return want
}

// isGenPattern reports whether p is one of genPatterns.
func isGenPattern(p *Pattern) bool {
	for _, q := range genPatterns {
		if p == q {
			return true
		}
	}
	return false
}

// checkStorage fails unless the change from before to after, made by op
// with error err, keeps the storage rules:
//   - every frame has the shape wantShapes gives it (a failed op changes
//     none), and a frame is only ever generated by one of genPatterns;
//   - a generated sector has no storage, and a frame has a pattern
//     exactly when it has a generated sector;
//   - owned storage keeps every page and sector it has, and a dense
//     frame's sectors are its page's slices;
//   - a chunk appears exactly when a successful op gives storage to a
//     sector of one of its frames or generates one, and is never replaced
//     or dropped.
func checkStorage(t *testing.T, i int, op memOp, err error, before, after []storage) {
	t.Helper()
	want := make([]shape, len(before))
	for f := range before {
		want[f] = shapeOf(before[f])
	}
	if err == nil {
		want = wantShapes(op, before)
	}
	var stores [fuzzFrames/chunkFrames + 1]bool
	for f := range after {
		b, a := before[f], after[f]
		if got := shapeOf(a); got != want[f] {
			t.Fatalf("op %d %+v: frame %d has shape %+v, want %+v", i, op, f, got, want[f])
		}
		stores[f/chunkFrames] = stores[f/chunkFrames] || !want[f].all(sectorEmpty)
		if b.chunk != nil && a.chunk != b.chunk {
			t.Fatalf("op %d %+v: frame %d's chunk was replaced or dropped", i, op, f)
		}
		if a.gen != nil && !isGenPattern(a.gen) {
			t.Fatalf("op %d %+v: frame %d is generated by a foreign pattern", i, op, f)
		}
		if (a.gen != nil) != (a.genMask != 0) {
			t.Fatalf("op %d %+v: frame %d has pattern %v and generated sectors %08b", i, op, f, a.gen != nil, a.genMask)
		}
		if b.page != nil && a.page != b.page {
			t.Fatalf("op %d %+v: frame %d's page was replaced or dropped", i, op, f)
		}
		for s := range a.sec {
			if a.sec[s] != nil && a.genMask&(1<<s) != 0 {
				t.Fatalf("op %d %+v: frame %d sector %d is generated and has storage", i, op, f, s)
			}
			if b.sec[s] != nil && a.sec[s] != b.sec[s] {
				t.Fatalf("op %d %+v: frame %d sector %d's storage was replaced or dropped", i, op, f, s)
			}
			if a.page != nil && a.sec[s] != (*[SectorSize]byte)(a.page[s*SectorSize:]) {
				t.Fatalf("op %d %+v: dense frame %d's sector %d is not a slice of its page", i, op, f, s)
			}
		}
	}
	for f := 0; f < len(after); f += chunkFrames {
		if before[f].chunk == nil && (after[f].chunk != nil) != stores[f/chunkFrames] {
			t.Fatalf("op %d %+v: chunk of frame %d allocated %v, want %v", i, op, f, after[f].chunk != nil, stores[f/chunkFrames])
		}
	}
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

// readsGenerated reports whether ReadGenerated(op.addr, op.n,
// genPattern(op)) must report true on memory with storage st: the range is
// inside memory and the op's pattern generates every sector it touches.
func readsGenerated(op memOp, st []storage) bool {
	if op.addr > fuzzFrames*PageSize || op.addr+uint64(op.n) > fuzzFrames*PageSize {
		return false
	}
	for a := op.addr; a < op.addr+uint64(op.n); a++ {
		if s := st[FrameOf(a)]; s.gen != genPattern(op) || s.genMask&(1<<(a%PageSize/SectorSize)) == 0 {
			return false
		}
	}
	return true
}

// replayMemOps runs ops on a fresh Mem and on the flat reference model and
// fails at the first op after which their errors, read bytes, memory,
// protection or Stats differ. Ops after opView go through a stack of
// views, which share storage and protection with the Mem both ways, so the
// Mem and the current view must both show the reference's memory and
// protection, and the Mem's Stats plus every unabsorbed view's must sum to
// the reference's. It also checks the storage itself after every op, with
// checkStorage, and that Generated, through the Mem and the current view,
// names exactly the sectors each pattern generates.
func replayMemOps(t *testing.T, ops []memOp) {
	t.Helper()
	root, ref := NewMem(fuzzFrames*PageSize), newFlatMem(fuzzFrames)
	m := root // the Mem or view the next op goes through
	var views []*Mem
	for i, op := range ops {
		var got, want error
		var gotBuf, wantBuf []byte
		before := storageOf(root)
		switch op.code {
		case opReadAt:
			// Stale bytes in the buffers show a read that skips untouched frames.
			gotBuf, wantBuf = make([]byte, op.n), make([]byte, op.n)
			fill(gotBuf, 0xee)
			fill(wantBuf, 0xee)
			got, want = m.ReadAt(op.addr, gotBuf), ref.readAt(op.addr, wantBuf)
		case opWriteAt:
			addr, buf, _ := written(op)
			got, want = m.WriteAt(addr, buf), ref.writeAt(addr, buf)
		case opGenerate:
			// A WriteAt of the pattern's bytes from the offset on, refused
			// outside the frame.
			addr, buf, _ := written(op)
			got = m.Generate(op.f, op.genOff(), genPattern(op))
			if want = ErrOutOfRange; op.f >= 0 && op.f < fuzzFrames && op.genOff() < PageSize {
				want = ref.writeAt(addr, buf)
			}
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
		case opCopyFrame:
			// An uncounted read of as much of the frame from the offset on
			// as the buffer holds; the junk past it must survive.
			gotBuf, wantBuf = make([]byte, op.n), make([]byte, op.n)
			fill(gotBuf, 0xee)
			fill(wantBuf, 0xee)
			got = m.CopyFrame(op.f, op.copyOff(), gotBuf)
			if op.f < 0 || op.f >= fuzzFrames || op.copyOff() > PageSize {
				want = ErrOutOfRange
			} else {
				copy(wantBuf, ref.frame(op.f)[op.copyOff():])
			}
		case opReadGenerated:
			// The check counts as the ReadAt it stands for whatever it
			// reports, and a range outside memory counts nothing.
			ok := m.ReadGenerated(op.addr, op.n, genPattern(op))
			if ok != readsGenerated(op, before) {
				t.Fatalf("op %d %+v: ReadGenerated = %v", i, op, ok)
			}
			_ = ref.readAt(op.addr, make([]byte, op.n))
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
		all := []Stats{root.Stats()}
		for _, v := range views {
			all = append(all, v.Stats())
		}
		if sumStats(all...) != ref.stats {
			t.Fatalf("op %d %+v: stats %+v, reference %+v", i, op, all, ref.stats)
		}
		after := storageOf(root)
		checkStorage(t, i, op, got, before, after)
		for _, p := range genPatterns {
			for f := -1; f <= fuzzFrames; f++ {
				var want uint8
				if f >= 0 && f < fuzzFrames && after[f].gen == p {
					want = after[f].genMask
				}
				if root.Generated(f, p) != want || m.Generated(f, p) != want {
					t.Fatalf("op %d %+v: Generated(%d) = %08b, want %08b", i, op, f, m.Generated(f, p), want)
				}
			}
		}
	}
}

// FuzzMemOps replays decoded ReadAt/WriteAt/ReadU64/WriteU64/Zero/Protect/
// CopyFrame/Generate/ReadGenerated sequences and View/Absorb on a Mem of a
// chunk and a part and on a flat byte-array reference model, which takes
// each Generate as a WriteAt of the pattern's bytes, and requires
// identical results after every op, storage that keeps checkStorage's
// rules, and Generated answers that match the storage. The seed corpus
// runs as a unit test.
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
	// Whole-frame copies, uncounted, of untouched (no storage gained),
	// sparse, written-then-zeroed and dense frames, into short, exact and
	// long buffers, and of frames out of range.
	f.Add(seq(
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 3, 0),
		encodeMemOp(opWriteAt, 3*PageSize+100, 50, 0x66, 0, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 3, 0),
		encodeMemOp(opCopyFrame, 0, 120, 0, 3, 0),
		encodeMemOp(opCopyFrame, 0, PageSize+10, 0, 3, 0),
		encodeMemOp(opZero, 0, 0, 0, 3, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 3, 0),
		encodeMemOp(opWriteAt, 0, 2*PageSize, 0x79, 0, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 1, 0),
		encodeMemOp(opCopyFrame, 0, 0, 0, 1, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, -1, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, fuzzFrames, 0),
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
	// back; writes, protection and storage cross between the Mem and its
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
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 2, 0),
		encodeMemOp(opView, 0, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, 2*PageSize+100, 8, 0x95, 0, 0),
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
	// one; a zero write, then one non-zero word, then a zero word onto its
	// sector.
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
		encodeMemOp(opWriteU64, 8, 0, 0x33, 0, 0),
		encodeMemOp(opReadU64, 8, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 16, 0, 0, 0, 0),
		encodeMemOp(opReadAt, 0, 32, 0, 0, 0),
	))
	// Sector storage: a first write that reaches all eight sectors without
	// covering the frame stores it dense; one that reaches seven, and a
	// striped page that leaves sectors 2 and 5 zero, store sparse, and a
	// later full page fills a sparse frame sector by sector; zero writes
	// onto stored sectors write their zeros; Zero clears a dense frame in
	// place; words and an unaligned word straddling two sectors give only
	// their sectors storage; a striped write spans two frames.
	f.Add(seq(
		encodeMemOp(opWriteAt, PageSize+100, PageSize-200, 0x12, 0, 0),
		encodeMemOp(opReadAt, PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opWriteAt, 2*PageSize, 7*SectorSize, 0x13, 0, 0),
		encodeMemOp(opWriteAt, 2*PageSize, PageSize, 0x14, 0, 0),
		encodeMemOp(opWriteAt, 3*PageSize, PageSize, 0xf1, 0, 0),
		encodeMemOp(opReadAt, 3*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opWriteAt, 3*PageSize+256, 2*SectorSize, 0, 0, 0),
		encodeMemOp(opReadU64, 3*PageSize+2*SectorSize, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 3*PageSize+2*SectorSize+8, 0, 0x21, 0, 0),
		encodeMemOp(opWriteU64, 3*PageSize+5*SectorSize, 0, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 1, 0),
		encodeMemOp(opWriteU64, PageSize+3*SectorSize, 0, 0x22, 0, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 1, 0),
		encodeMemOp(opWriteU64, 7*SectorSize-4, 0, 0x23, 0, 0),
		encodeMemOp(opReadU64, 7*SectorSize-4, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, 2000, 3*PageSize, 0xf7, 0, 0),
		encodeMemOp(opReadAt, 0, 4*PageSize, 0, 0, 0),
	))
	// Chunks: a write spanning the boundary between the first chunk and
	// the second allocates the second; zero writes and zero words into
	// frames of the second chunk and a Zero of one allocate nothing before
	// it; the last, partial chunk's last frame and word; a read across the
	// boundary.
	f.Add(seq(
		encodeMemOp(opWriteAt, chunkFrames*PageSize+64, PageSize, 0, 0, 0),
		encodeMemOp(opWriteU64, (chunkFrames+1)*PageSize, 0, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, chunkFrames+2, 0),
		encodeMemOp(opWriteAt, chunkFrames*PageSize-100, 200, 0x41, 0, 0),
		encodeMemOp(opReadAt, chunkFrames*PageSize-300, 2*PageSize, 0, 0, 0),
		encodeMemOp(opWriteU64, end-8, 0, 0x42, 0, 0),
		encodeMemOp(opReadU64, end-8, 0, 0, 0, 0),
		encodeMemOp(opWriteAt, end-PageSize, PageSize, 0xf4, 0, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, fuzzFrames-1, 0),
	))
	// Generated frames: Generate into a missing chunk and an empty frame;
	// still-generated checks over two frames the named pattern generates,
	// naming another pattern, reaching a frame it does not generate, of no
	// bytes, at and past the end; reads, aligned and unaligned words and
	// copies of generated frames; a word straddling a generated frame and a
	// zero-length write onto one; Zero of a generated frame; the zero
	// pattern onto owned storage and onto an empty frame; a replacing
	// Generate; a zero write onto a generated frame; a Generate onto owned
	// sparse and dense storage; a refused and out-of-range Generate; a
	// write through a view onto a generated frame of the second chunk; an
	// unaligned word across two generated frames; Generate again onto a
	// zeroed generated frame and onto a zeroed dense one.
	f.Add(seq(
		encodeMemOp(opGenerate, 0, 0, 0, 2, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 3, 0),
		encodeMemOp(opReadGenerated, 2*PageSize+100, PageSize, 0, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize+100, PageSize, 0, 0, 1),
		encodeMemOp(opReadGenerated, 2*PageSize+100, 2*PageSize, 0, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize+100, 0, 0, 0, 1),
		encodeMemOp(opReadGenerated, end, 0, 0, 0, 0),
		encodeMemOp(opReadGenerated, end-8, 16, 0, 0, 0),
		encodeMemOp(opReadAt, 2*PageSize-8, PageSize+16, 0, 0, 0),
		encodeMemOp(opReadU64, 2*PageSize+640, 0, 0, 0, 0),
		encodeMemOp(opReadU64, 3*PageSize-3, 0, 0, 0, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 2, 0),
		encodeMemOp(opCopyFrame, 0, 100, 0, 3, 0),
		encodeMemOp(opWriteU64, 4*PageSize-4, 0, 0x51, 0, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 3, 0),
		encodeMemOp(opWriteAt, 3*PageSize+10, 0, 0x52, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize, 2*PageSize, 0, 0, 0),
		encodeMemOp(opWriteU64, 3*PageSize+8, 0, 0x53, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize, 2*PageSize, 0, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 2, 0),
		encodeMemOp(opReadGenerated, 2*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 4, 2),
		encodeMemOp(opGenerate, 0, 0, 0, 5, 1),
		encodeMemOp(opReadGenerated, 5*PageSize, PageSize, 0, 0, 1),
		encodeMemOp(opGenerate, 0, 0, 0, 5, 0),
		encodeMemOp(opWriteAt, 5*PageSize+700, 300, 0, 0, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 6, 2),
		encodeMemOp(opReadGenerated, 6*PageSize, PageSize, 0, 0, 2),
		encodeMemOp(opWriteAt, PageSize+100, 40, 0x54, 0, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 1, 1),
		encodeMemOp(opGenerate, 0, 0, 0, 5, 1),
		encodeMemOp(opProtect, 0, 0, 0, 7, 1),
		encodeMemOp(opGenerate, 0, 0, 0, 7, 0),
		encodeMemOp(opGenerate, 0, 0, 0, -1, 0),
		encodeMemOp(opGenerate, 0, 0, 0, fuzzFrames, 0),
		encodeMemOp(opGenerate, 0, 0, 0, chunkFrames+1, 0),
		encodeMemOp(opView, 0, 0, 0, 0, 0),
		encodeMemOp(opReadGenerated, (chunkFrames+1)*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opWriteAt, (chunkFrames+1)*PageSize+4000, 200, 0x55, 0, 0),
		encodeMemOp(opAbsorb, 0, 0, 0, 0, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 8, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 9, 1),
		encodeMemOp(opWriteU64, 9*PageSize-4, 0, 0x56, 0, 0),
		encodeMemOp(opReadAt, 8*PageSize, 2*PageSize, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 6, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 6, 1),
		encodeMemOp(opZero, 0, 0, 0, 9, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 9, 0),
		encodeMemOp(opReadAt, 5*PageSize, 5*PageSize/2, 0, 0, 0),
	))
	// Sector-granular generation: one byte written into a generated frame
	// gives only its sector storage; reads, a generated check and a ranged
	// copy across the written sector's boundaries; a write over every
	// sector of a frame generated whole, and one over a frame generated in
	// part, give each generated sector storage of its own; a zero byte
	// written into a sector the zero pattern generates.
	f.Add(seq(
		encodeMemOp(opGenerate, 0, 0, 0, 2, 0),
		encodeMemOp(opWriteAt, 2*PageSize+700, 1, 0x61, 0, 0),
		encodeMemOp(opReadAt, 2*PageSize+500, 600, 0, 0, 0),
		encodeMemOp(opReadAt, 2*PageSize+511, 2, 0, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize, SectorSize, 0, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize+1000, 100, 0, 0, 0),
		encodeMemOp(opReadGenerated, 2*PageSize+1024, PageSize, 0, 0, 0),
		encodeMemOp(opCopyFrame, 511, 2, 0, 2, 0),
		encodeMemOp(opCopyFrame, 1000, PageSize, 0, 2, 0),
		encodeMemOp(opCopyFrame, PageSize, 8, 0, 2, 0),
		encodeMemOp(opCopyFrame, PageSize+1, 8, 0, 2, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 3, 0),
		encodeMemOp(opWriteAt, 3*PageSize+100, PageSize-200, 0, 0, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 3, 0),
		encodeMemOp(opWriteAt, 2*PageSize, PageSize, 0xf2, 0, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 4, 2),
		encodeMemOp(opWriteAt, 4*PageSize+2000, 1, 0, 0, 0),
		encodeMemOp(opReadGenerated, 4*PageSize, PageSize, 0, 0, 2),
	))
	// Words beside a written sector: aligned words at the last of the
	// generated sector before it and the first of the one after, the
	// written word, an unaligned word across the boundary; a zero word
	// into a generated sector, and an unaligned word that privatizes the
	// generated sector it reaches.
	f.Add(seq(
		encodeMemOp(opGenerate, 0, 0, 0, 4, 1),
		encodeMemOp(opWriteU64, 4*PageSize+3*SectorSize+8, 0, 0x71, 0, 0),
		encodeMemOp(opReadU64, 4*PageSize+3*SectorSize-8, 0, 0, 0, 0),
		encodeMemOp(opReadU64, 4*PageSize+4*SectorSize, 0, 0, 0, 0),
		encodeMemOp(opReadU64, 4*PageSize+3*SectorSize+8, 0, 0, 0, 0),
		encodeMemOp(opReadU64, 4*PageSize+3*SectorSize-4, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 4*PageSize+4*SectorSize, 0, 0, 0, 0),
		encodeMemOp(opWriteU64, 4*PageSize+3*SectorSize-4, 0, 0x72, 0, 0),
		encodeMemOp(opReadAt, 4*PageSize, PageSize, 0, 0, 0),
	))
	// Zero and Generate over a partly written frame: a Generate from 0
	// with another pattern writes the owned sector and generates the rest;
	// one from inside an owned sector writes it, generates the sectors
	// after it, and gives the other pattern's sectors before it storage;
	// Zero ends the generation; a Generate from mid-sector onto the zeroed
	// frame; one from a sector boundary onto an empty frame leaves the
	// sectors before it empty, and a full write then stores those sparse.
	f.Add(seq(
		encodeMemOp(opGenerate, 0, 0, 0, 5, 0),
		encodeMemOp(opWriteAt, 5*PageSize+1024, 10, 0x81, 0, 0),
		encodeMemOp(opGenerate, 0, 0, 0, 5, 1),
		encodeMemOp(opReadGenerated, 5*PageSize, PageSize, 0, 0, 1),
		encodeMemOp(opGenerate, 0, 1500, 0, 5, 0),
		encodeMemOp(opReadAt, 5*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opZero, 0, 0, 0, 5, 0),
		encodeMemOp(opReadAt, 5*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opGenerate, 0, 3000, 0, 5, 2),
		encodeMemOp(opReadGenerated, 5*PageSize+3*SectorSize, 3*SectorSize, 0, 0, 2),
		encodeMemOp(opGenerate, 0, 2048, 0, 6, 0),
		encodeMemOp(opReadAt, 6*PageSize, PageSize, 0, 0, 0),
		encodeMemOp(opWriteAt, 6*PageSize, PageSize, 0x82, 0, 0),
		encodeMemOp(opGenerate, 0, PageSize, 0, 6, 0),
		encodeMemOp(opProtect, 0, 0, 0, 6, 1),
		encodeMemOp(opGenerate, 0, 100, 0, 6, 0),
	))
	// The kernel-stack shape: a zeroed frame generated from offset 56,
	// then its 56-byte context written at offset 0, which lands on the
	// sector the generate already stored; the NMI word and the live
	// window read and checked; a stack fault in the window, its repair,
	// and a check of the scratch area; then the frame is zeroed and built
	// again.
	f.Add(seq(
		encodeMemOp(opZero, 0, 0, 0, 7, 0),
		encodeMemOp(opGenerate, 0, 56, 0, 7, 0),
		encodeMemOp(opWriteAt, 7*PageSize, 56, 0x91, 0, 0),
		encodeMemOp(opReadU64, 7*PageSize+56, 0, 0, 0, 0),
		encodeMemOp(opReadGenerated, 7*PageSize+56, 8, 0, 0, 0),
		encodeMemOp(opReadGenerated, 7*PageSize+SectorSize, 128, 0, 0, 0),
		encodeMemOp(opWriteAt, 7*PageSize+SectorSize+132, 4, 0x92, 0, 0),
		encodeMemOp(opReadGenerated, 7*PageSize+SectorSize, PageSize-SectorSize, 0, 0, 0),
		encodeMemOp(opWriteAt, 7*PageSize+SectorSize, 128, 0x93, 0, 0),
		encodeMemOp(opCopyFrame, 0, PageSize, 0, 7, 0),
		encodeMemOp(opZero, 0, 0, 0, 7, 0),
		encodeMemOp(opGenerate, 0, 56, 0, 7, 0),
		encodeMemOp(opWriteAt, 7*PageSize, 56, 0x94, 0, 0),
		encodeMemOp(opReadAt, 7*PageSize, PageSize, 0, 0, 0),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		replayMemOps(t, decodeMemOps(data))
	})
}
