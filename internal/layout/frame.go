package layout

import (
	"encoding/binary"
	"hash/crc32"

	"otherworld/internal/phys"
)

// Crash-reservation tail frames
//
// The unprotected tail of each crash slot holds three planes the running
// kernel writes and the crash kernel salvages: the flight-recorder ring
// (internal/trace), the candidate index (index.go) and the metrics segment
// (internal/metrics). All three are runs of fixed-size frames sealed by one
// codec:
//
//	magic(2) | kind(1) | flags(1) | generation(4) | length(2) | payload | crc32c(4) | zero padding
//
// The CRC covers the header and payload. The kind names the plane (and the
// frame's role within it); the generation is the sequence number of the
// kernel that wrote the frame. A plane keeps only its payload codec: the
// salvage iterator below does the framing, the skip-and-count and the
// generation check for all of them.

// FrameMagic marks a tail frame; deliberately distinct from Magic so a tail
// frame can never be confused with a kernel record.
const FrameMagic uint16 = 0x0D74

// FrameHeaderSize is a tail frame's prefix; FrameOverhead adds the CRC.
const (
	FrameHeaderSize = 10
	FrameOverhead   = FrameHeaderSize + TrailerSize
)

// FrameKind says which plane a tail frame belongs to.
type FrameKind uint8

// Frame kinds: a flight-recorder event, the candidate index's header and
// entry slots, and a metrics-segment page. Zero is no kind.
const (
	KindTrace FrameKind = iota + 1
	KindIndexHeader
	KindIndexEntry
	KindMetrics
)

// SealFrame packs payload into a size-byte frame image: header, payload,
// CRC-32C and zero padding. The payload must fit: len(payload) <= size -
// FrameOverhead.
func SealFrame(kind FrameKind, flags uint8, gen uint32, size int, payload []byte) []byte {
	buf := make([]byte, size)
	SealFrameInto(buf, kind, flags, gen, payload)
	return buf
}

// SealFrameInto is SealFrame into an image the caller owns, a frame long:
// every byte of dst is written, so an image reused for the next frame keeps
// nothing of the last one. The payload must fit: len(payload) <= len(dst) -
// FrameOverhead.
func SealFrameInto(dst []byte, kind FrameKind, flags uint8, gen uint32, payload []byte) {
	binary.LittleEndian.PutUint16(dst[0:], FrameMagic)
	dst[2] = uint8(kind)
	dst[3] = flags
	binary.LittleEndian.PutUint32(dst[4:], gen)
	binary.LittleEndian.PutUint16(dst[8:], uint16(len(payload)))
	end := FrameHeaderSize + copy(dst[FrameHeaderSize:], payload)
	binary.LittleEndian.PutUint32(dst[end:], crc32.Checksum(dst[:end], CRCTable))
	clear(dst[end+TrailerSize:])
}

// Span locates one plane's frames: Count frames of Size bytes from Base,
// all of kind Kind.
type Span struct {
	Base  uint64
	Count int
	Size  int
	Kind  FrameKind
	// Gen pins the current generation (a header that names it, like the
	// candidate index's). Zero, which no kernel writes, selects the newest
	// generation among the span's sound frames.
	Gen uint32
	// Sparse spans read a frame's two-byte prefix first and then only its
	// framed bytes, for regions that are mostly empty or short slots (the
	// candidate index). Dense spans read each frame whole in one access.
	Sparse bool
}

// Frame is one sound frame as the salvage iterator hands it to a plane's
// payload decoder. Payload aliases the iterator's scratch buffer and is
// valid only during the call.
type Frame struct {
	Addr    uint64
	Kind    FrameKind
	Flags   uint8
	Gen     uint32
	Payload []byte
}

// Salvage tallies one walk of a span. Every frame lands in exactly one of
// four states, so they sum to the span's Count: empty (never written: all
// zero, or in sparse spans a zero prefix), damaged (unreadable, failing the
// magic, kind, length or CRC check, or rejected by the payload decoder),
// stale (sound, but of another generation) and valid.
type Salvage struct {
	Gen                          uint32 // the current generation
	Empty, Damaged, Stale, Valid int
	// Foreign counts the damaged frames that do not bear the span's kind:
	// no magic, or another plane's frame.
	Foreign int
}

// SalvageFrames is the salvage iterator: it walks a span frame by frame
// through the read-only reader m, hands every sound frame to decode, and
// returns the decoded items of the current generation in address order,
// with the tallies. It never fails: an unreadable frame is damaged. With
// verifyCRC off the checksum is not checked (the Section 4 ablation), but
// magic, kind and length still are.
func SalvageFrames[T any](m Reader, span Span, verifyCRC bool, decode func(Frame) (T, bool)) ([]T, Salvage) {
	s := Salvage{Gen: span.Gen}
	buf := make([]byte, span.Size)
	var items []T
	var gens []uint32
	for i := 0; i < span.Count; i++ {
		f, st := readFrame(m, span, span.Base+uint64(i*span.Size), buf, verifyCRC)
		if st == frameEmpty {
			s.Empty++
			continue
		}
		var item T
		ok := false
		if st == frameSound {
			item, ok = decode(f)
		}
		if !ok {
			s.Damaged++
			if f.Kind != span.Kind {
				s.Foreign++
			}
			continue
		}
		items, gens = append(items, item), append(gens, f.Gen)
		if span.Gen == 0 && f.Gen > s.Gen {
			s.Gen = f.Gen
		}
	}
	// The generation rule: only the current generation's items survive.
	n := 0
	for i, g := range gens {
		if g == s.Gen {
			items[n] = items[i]
			n++
		}
	}
	clear(items[n:])
	s.Valid, s.Stale = n, len(items)-n
	return items[:n], s
}

type frameState uint8

const (
	frameEmpty frameState = iota
	frameDamaged
	frameSound
)

// readFrame reads and checks the frame at addr, using buf (one frame long)
// as scratch. A sound frame's payload aliases buf.
func readFrame(m Reader, span Span, addr uint64, buf []byte, verifyCRC bool) (Frame, frameState) {
	f := Frame{Addr: addr}
	if span.Sparse {
		if len(buf) < FrameHeaderSize || m.ReadAt(addr, buf[:2]) != nil {
			return f, frameDamaged
		}
		if buf[0] == 0 && buf[1] == 0 {
			return f, frameEmpty
		}
		if m.ReadAt(addr+2, buf[2:FrameHeaderSize]) != nil {
			return f, frameDamaged
		}
	} else {
		if m.ReadAt(addr, buf) != nil {
			return f, frameDamaged
		}
		if phys.PageIsZero(buf) {
			return f, frameEmpty
		}
	}
	if len(buf) < FrameOverhead || binary.LittleEndian.Uint16(buf[0:]) != FrameMagic {
		return f, frameDamaged
	}
	f.Kind = FrameKind(buf[2])
	f.Flags = buf[3]
	f.Gen = binary.LittleEndian.Uint32(buf[4:])
	end := FrameHeaderSize + int(binary.LittleEndian.Uint16(buf[8:]))
	if f.Kind != span.Kind || end+TrailerSize > len(buf) {
		return f, frameDamaged
	}
	if span.Sparse && m.ReadAt(addr+FrameHeaderSize, buf[FrameHeaderSize:end+TrailerSize]) != nil {
		return f, frameDamaged
	}
	if verifyCRC && crc32.Checksum(buf[:end], CRCTable) != binary.LittleEndian.Uint32(buf[end:]) {
		return f, frameDamaged
	}
	f.Payload = buf[FrameHeaderSize:end]
	return f, frameSound
}
