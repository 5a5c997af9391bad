// Package layout defines the on-memory binary format of every main-kernel
// data structure the crash kernel must parse during resurrection: the
// globals anchor, process descriptors, memory-region descriptors, open-file
// records, swap-area descriptors, terminal state, signal tables, shared
// memory, pipes and sockets, plus page-table entries and the saved hardware
// context on kernel stacks.
//
// Records are stored in simulated physical memory framed as
//
//	magic(2) | type(1) | flags(1) | payload length(4) | payload | crc32(4)
//
// with all integers little-endian. The CRC covers the header and payload;
// the flags byte is written as zero and not read.
// Integrity checking is the paper's Section 4 hardening: "one could add
// checksums ... to the most important data structures"; it is togglable so
// the undetected-corruption ablation can run without it.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic marks the start of every kernel record.
const Magic uint16 = 0x0D6F // "Ot"herworld

// HeaderSize is the framing prefix length and TrailerSize the CRC suffix.
const (
	HeaderSize  = 8
	TrailerSize = 4
)

// Type identifies what kind of kernel structure a record encodes.
type Type uint8

// Record types.
const (
	TypeInvalid Type = iota
	// TypeGlobals is the kernel globals anchor at a fixed physical
	// address (Section 3.3: "the starting physical address of the kernel
	// is constant and configurable at kernel compilation time").
	TypeGlobals
	// TypeProc is a process descriptor, an element of the kernel's
	// process linked list.
	TypeProc
	// TypeMemRegion is a virtual memory region descriptor.
	TypeMemRegion
	// TypeFile is an open-file record carrying name, flags and offset in
	// one structure (the paper's Section 3.1 kernel modification).
	TypeFile
	// TypeSwapTable is the fixed-size swap-area descriptor array.
	TypeSwapTable
	// TypeTerminal is a physical terminal's screen and settings.
	TypeTerminal
	// TypeSignals is a process's signal-handler table.
	TypeSignals
	// TypeShm is a shared-memory segment descriptor.
	TypeShm
	// TypePipe is a pipe descriptor (not resurrected by the prototype).
	TypePipe
	// TypeSocket is a socket descriptor (not resurrected by the
	// prototype).
	TypeSocket
	// TypeCachePage is one page-cache entry (file offset, frame, dirty).
	TypeCachePage
	typeMax
)

var typeNames = [...]string{
	"invalid", "globals", "proc", "memregion", "file", "swaptable",
	"terminal", "signals", "shm", "pipe", "socket", "cachepage",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MaxPayload bounds record payloads; decodes beyond it are treated as
// corruption rather than attempted.
const MaxPayload = 64 * 1024

// CorruptionError reports that a record in main-kernel memory failed
// validation. The crash kernel maps these to resurrection failures
// ("failure to resurrect application", Table 5 column 4).
type CorruptionError struct {
	Addr   uint64
	Want   Type
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("layout: corrupt %s record at %#x: %s", e.Want, e.Addr, e.Reason)
}

// IsCorruption reports whether err is (or wraps) a CorruptionError.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// Reader is the read-only memory surface every crash-kernel decoder needs.
// *phys.Mem satisfies it, as do the resurrection engine's byte-counting
// accessor and *dump.Image, which is how owstat and owdump salvage a dead
// kernel's structures from a raw dump file.
type Reader interface {
	ReadAt(addr uint64, buf []byte) error
}

// MemoryAccessor is the writable memory the main kernel's writers need
// (the saved context, the candidate index). Both kernels satisfy it with
// *phys.Mem.
type MemoryAccessor interface {
	Reader
	WriteAt(addr uint64, buf []byte) error
}

// CRCTable is the Castagnoli (CRC-32C) table behind every checksum the
// simulated kernels write: records, tail frames, and the resurrection
// engine's page validation.
var CRCTable = crc32.MakeTable(crc32.Castagnoli)

// The codec
//
// Every record type has one decoder and one encoder, and they share the
// framing below. The decoder is the type's Read method: it reads the record
// at an address through a buffer the caller owns (readRecord) and decodes it
// into the value it is called on, which it writes only on success. The
// encoder is the type's AppendRecord method: it appends the complete sealed
// record, header, payload and CRC, under the type's own tag (newRecord,
// writer.seal). A caller that reuses its buffer reads and writes records
// without allocating.

// readRecord reads and validates the record of type want at addr through
// *buf, which it grows when the record does not fit, and returns its
// payload, which aliases *buf. It makes exactly two ReadAt calls on a
// readable record (the header, then payload plus CRC), whatever *buf held
// before. If verifyCRC is false the checksum is not checked, the Section 4
// ablation, but structural validation (magic, type, length) still applies,
// modelling the "data integrity rules" checks that need no checksums.
func readRecord(m Reader, addr uint64, want Type, verifyCRC bool, buf *[]byte) ([]byte, error) {
	b := *buf
	if cap(b) < HeaderSize {
		b = make([]byte, HeaderSize)
		*buf = b
	}
	hdr := b[:HeaderSize]
	if err := m.ReadAt(addr, hdr); err != nil {
		return nil, &CorruptionError{Addr: addr, Want: want, Reason: "header unreadable: " + err.Error()}
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != Magic {
		return nil, &CorruptionError{Addr: addr, Want: want, Reason: "bad magic"}
	}
	got := Type(hdr[2])
	if got != want {
		return nil, &CorruptionError{Addr: addr, Want: want, Reason: fmt.Sprintf("type mismatch: found %s", got)}
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return nil, &CorruptionError{Addr: addr, Want: want, Reason: fmt.Sprintf("payload length %d exceeds limit", n)}
	}
	size := HeaderSize + int(n) + TrailerSize
	if cap(b) < size {
		b = make([]byte, size)
		copy(b, hdr)
		*buf = b
	}
	b = b[:size]
	if err := m.ReadAt(addr+HeaderSize, b[HeaderSize:]); err != nil {
		return nil, &CorruptionError{Addr: addr, Want: want, Reason: "payload unreadable: " + err.Error()}
	}
	if verifyCRC {
		stored := binary.LittleEndian.Uint32(b[HeaderSize+n:])
		if stored != crc32.Checksum(b[:HeaderSize+n], CRCTable) {
			return nil, &CorruptionError{Addr: addr, Want: want, Reason: "checksum mismatch"}
		}
	}
	return b[HeaderSize : HeaderSize+n], nil
}

// readInto is the one record reader behind every Read method: it reads the
// record of type want at addr through *buf and hands its payload to decode.
// Each Read passes the decode method of a copy of its receiver as a method
// value and keeps the copy only on success, so the call is static and the
// copy stays on the caller's stack.
func readInto(m Reader, addr uint64, want Type, verifyCRC bool, buf *[]byte, decode func(addr uint64, payload []byte) error) error {
	payload, err := readRecord(m, addr, want, verifyCRC, buf)
	if err != nil {
		return err
	}
	return decode(addr, payload)
}

// newRecord starts a record at the end of dst, leaving room for the header
// that seal writes.
func newRecord(dst []byte) writer {
	return writer{buf: append(dst, make([]byte, HeaderSize)...), start: len(dst)}
}

// seal writes the header of the record w holds, as a record of type t, and
// appends the CRC over header and payload. It returns the destination with
// the complete record appended.
func (w *writer) seal(t Type) []byte {
	rec := w.buf[w.start:]
	binary.LittleEndian.PutUint16(rec[0:], Magic)
	rec[2] = uint8(t)
	rec[3] = 0
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(rec)-HeaderSize))
	return binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(rec, CRCTable))
}
