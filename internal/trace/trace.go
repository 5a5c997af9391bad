// Package trace implements Otherworld's crash-surviving flight recorder: a
// fixed-layout ring buffer of binary trace events that the main kernel
// writes into a dedicated, unprotected sub-region of the reserved crash
// area during normal operation — the same trick as Linux pstore/ramoops.
//
// Because the ring lives in raw physical memory, it survives the kernel
// failure: after the microreboot the crash kernel re-parses it out of the
// dead kernel's bytes (the natural extension of the paper's Section 3.3
// "parse the dead kernel's memory" design) and learns what the main kernel
// was doing at panic time — the panic context, the faults that had been
// injected and had manifested, and the most recent scheduler decisions and
// syscall/pagefault counter snapshots.
//
// Each event is one tail frame of the crash reservation (internal/layout's
// frame codec, shared with the candidate index and the metrics segment),
// one event per fixed-size slot, stamped with the writing kernel's
// generation. The parser therefore tolerates arbitrary corruption of the
// ring itself: a damaged or stale slot is skipped and counted, never a
// parse abort. Wild writes land on the ring like on any other memory — the
// recorder is part of the experiment, not outside it.
package trace

import (
	"encoding/binary"
	"fmt"
	"sort"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// SlotSize is the fixed size of one ring slot in bytes. A frame holds
// exactly PageSize/SlotSize slots.
const SlotSize = 128

// MaxNote bounds the free-text note so an event always fits one slot.
const MaxNote = 72

// Event payload, inside the slot's tail frame:
//
//	kind(1) | seq(8) | cpu(1) | pid(4) | pc(8) | a(8) | b(8) | note length(1) | note
const (
	eventFixed = 39
	maxPayload = eventFixed + MaxNote
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	KindInvalid Kind = iota
	// KindBoot marks a kernel generation starting (A = boot count).
	KindBoot
	// KindSched is a sampled scheduler decision: PID was given a quantum
	// at program counter PC (A = total steps so far).
	KindSched
	// KindCounters is a periodic counter snapshot: A = syscalls,
	// B = pagefaults | swap-ins<<32.
	KindCounters
	// KindFaultInject records one injected fault (A = fault class,
	// B = corrupted physical address, PID = victim thread for stack
	// faults).
	KindFaultInject
	// KindFaultManifest records a latent fault manifesting (A = the
	// misbehaviour code, Note = the kernel path it fired in).
	KindFaultManifest
	// KindPanic is the kernel failure context: CPU, PID, PC of the
	// failing thread, A/B packed via PackPanic, Note = panic reason.
	KindPanic
	// KindResurrect is a crash-kernel resurrection phase event: PID is the
	// dead process being scanned, Seq/PC its candidate-local logical time
	// (the worker ledger offset), A = the resurrect.Phase, B = bytes read
	// in that phase, Note = the phase name.
	KindResurrect
	// KindDiskCrash records the block-layer crash model firing at a kernel
	// failure (A = rolled-back writes, B = orphan pages flushed, Note = the
	// crash report summary). Recorded on the new kernel's ring: the dead
	// ring is already being salvaged when the model fires.
	KindDiskCrash
	// KindSpanMark is a span-boundary marker for the post-mortem causal
	// span plane (internal/spans): A = a SpanMark* code, B = a mark-specific
	// scalar. Recorded on the new kernel's ring by the experiment harness at
	// recovery milestones (resume, data audit); the healthy path never
	// writes one, so the plane costs nothing before a failure.
	KindSpanMark
	kindMax
)

// Span-mark codes carried in a KindSpanMark event's A scalar.
const (
	// SpanMarkResume marks the first post-recovery quantum the workload ran
	// (B = the resurrection report's resumed-process count).
	SpanMarkResume uint64 = iota + 1
	// SpanMarkAudit marks the post-crash data audit completing (B = 1 when
	// the audit found a violation, 0 when clean).
	SpanMarkAudit
)

var kindNames = [...]string{
	"invalid", "boot", "sched", "counters",
	"fault-inject", "fault-manifest", "panic", "resurrect", "disk-crash",
	"span-mark",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one flight-recorder entry. The scalar fields A and B carry
// kind-specific values (see the Kind constants).
type Event struct {
	// Seq is the global write sequence number; parsing sorts by it.
	Seq  uint64
	Kind Kind
	// CPU is the processor the event was observed on.
	CPU uint8
	// PID is the process involved (0 if none).
	PID uint32
	// PC is the user program counter of that process at event time.
	PC uint64
	// A and B are kind-specific scalars.
	A, B uint64
	// Note is a short free-text annotation, truncated to MaxNote bytes.
	Note string
}

func (e Event) String() string {
	s := fmt.Sprintf("#%d %s cpu%d pid%d pc=%d a=%#x b=%#x",
		e.Seq, e.Kind, e.CPU, e.PID, e.PC, e.A, e.B)
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// PackPanic packs a panic event's A/B scalars: panic kind, oops
// subcategory, and the syscall in flight (if any).
func PackPanic(panicKind, oopsKind uint8, inSyscall bool, syscallNo uint16) (a, b uint64) {
	a = uint64(panicKind)
	b = uint64(oopsKind) | uint64(syscallNo)<<16
	if inSyscall {
		b |= 1 << 8
	}
	return a, b
}

// UnpackPanic reverses PackPanic.
func UnpackPanic(a, b uint64) (panicKind, oopsKind uint8, inSyscall bool, syscallNo uint16) {
	return uint8(a), uint8(b), b&(1<<8) != 0, uint16(b >> 16)
}

// PackCounters packs a counter snapshot's B scalar.
func PackCounters(pageFaults, swapIns uint64) uint64 {
	return pageFaults&0xFFFFFFFF | (swapIns&0xFFFFFFFF)<<32
}

// UnpackCounters reverses PackCounters.
func UnpackCounters(b uint64) (pageFaults, swapIns uint64) {
	return b & 0xFFFFFFFF, b >> 32
}

// encodeEvent writes an event's payload into p and returns its length.
func encodeEvent(p *[maxPayload]byte, ev Event) int {
	note := ev.Note
	if len(note) > MaxNote {
		note = note[:MaxNote]
	}
	p[0] = uint8(ev.Kind)
	binary.LittleEndian.PutUint64(p[1:], ev.Seq)
	p[9] = ev.CPU
	binary.LittleEndian.PutUint32(p[10:], ev.PID)
	binary.LittleEndian.PutUint64(p[14:], ev.PC)
	binary.LittleEndian.PutUint64(p[22:], ev.A)
	binary.LittleEndian.PutUint64(p[30:], ev.B)
	p[38] = uint8(len(note))
	return eventFixed + copy(p[eventFixed:], note)
}

// decodeEvent decodes one sound slot frame; ok=false means its payload
// does not form an event.
func decodeEvent(f layout.Frame) (Event, bool) {
	p := f.Payload
	if len(p) < eventFixed {
		return Event{}, false
	}
	kind := Kind(p[0])
	noteLen := int(p[38])
	if kind == KindInvalid || kind >= kindMax || eventFixed+noteLen > len(p) {
		return Event{}, false
	}
	return Event{
		Kind: kind,
		Seq:  binary.LittleEndian.Uint64(p[1:]),
		CPU:  p[9],
		PID:  binary.LittleEndian.Uint32(p[10:]),
		PC:   binary.LittleEndian.Uint64(p[14:]),
		A:    binary.LittleEndian.Uint64(p[22:]),
		B:    binary.LittleEndian.Uint64(p[30:]),
		Note: string(p[eventFixed : eventFixed+noteLen]),
	}, true
}

// Ring is the writer side of the flight recorder: the main kernel holds one
// over its crash-area sub-region and appends events during normal
// operation. A nil *Ring is a valid no-op recorder, so instrumented code
// never needs to check whether tracing is enabled.
type Ring struct {
	mem    *phys.Mem
	region phys.Region
	slots  int
	gen    uint32
	seq    uint64
	// Dropped counts events whose slot write failed (e.g. the region was
	// protected by mistake); the recorder must never take the kernel down.
	Dropped uint64
}

// CapacityOf returns how many SlotSize slots fit in region.
func CapacityOf(region phys.Region) int {
	return region.Bytes() / SlotSize
}

// FramesFor returns how many frames a ring of maxEvents slots needs.
func FramesFor(maxEvents int) int {
	if maxEvents <= 0 {
		return 0
	}
	return (maxEvents*SlotSize + phys.PageSize - 1) / phys.PageSize
}

// NewRing prepares a writer over region for kernel generation gen. The
// capacity is the number of slots that fit; a zero-frame region yields a nil
// ring (tracing off).
func NewRing(mem *phys.Mem, region phys.Region, gen uint32) *Ring {
	if region.Frames <= 0 || CapacityOf(region) == 0 {
		return nil
	}
	return &Ring{mem: mem, region: region, slots: CapacityOf(region), gen: gen}
}

// Region returns the physical region backing the ring.
func (r *Ring) Region() phys.Region {
	if r == nil {
		return phys.Region{}
	}
	return r.region
}

// Capacity returns the slot count (0 for a nil ring).
func (r *Ring) Capacity() int {
	if r == nil {
		return 0
	}
	return r.slots
}

// Seq returns the number of events recorded so far.
func (r *Ring) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Record appends one event, overwriting the oldest slot once the ring is
// full. It never fails: a slot write error is counted and swallowed,
// because the recorder must not perturb the kernel it is observing.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	ev.Seq = r.seq
	r.seq++
	slot := int(ev.Seq % uint64(r.slots))
	addr := phys.FrameAddr(r.region.Start) + uint64(slot*SlotSize)
	var p [maxPayload]byte
	n := encodeEvent(&p, ev)
	if err := r.mem.WriteAt(addr, layout.SealFrame(layout.KindTrace, 0, r.gen, SlotSize, p[:n])); err != nil {
		r.Dropped++
	}
}

// Reset zeroes the ring region and restarts the sequence, for a fresh
// kernel generation taking over the recorder.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	zero := make([]byte, phys.PageSize)
	for f := r.region.Start; f < r.region.End(); f++ {
		//owvet:allow errdrop: the recorder must never take the kernel down; frames were range-checked by NewRing
		_ = r.mem.WriteAt(phys.FrameAddr(f), zero)
	}
	r.seq = 0
	r.Dropped = 0
}

// Parsed is the reader side: the ring recovered from raw physical memory
// after a failure.
type Parsed struct {
	// Events holds every valid slot in ascending sequence order.
	Events []Event
	// Damaged counts slots that held data but failed validation — the
	// ring's own corruption, skipped rather than fatal.
	Damaged int
	// Empty counts never-written slots.
	Empty int
	// Capacity is the total slot count of the region.
	Capacity int
}

// Parse salvages a ring region slot by slot, tolerating corruption: a slot
// that is not all-zero and does not hold a valid event of the ring's
// generation is counted as damaged and skipped. Parse never fails; an
// unreadable region yields an empty result with every slot counted damaged.
func Parse(m layout.Reader, region phys.Region) *Parsed {
	span := layout.Span{Base: phys.FrameAddr(region.Start), Count: CapacityOf(region), Size: SlotSize, Kind: layout.KindTrace}
	events, s := layout.SalvageFrames(m, span, true, decodeEvent)
	p := &Parsed{Events: events, Capacity: span.Count, Empty: s.Empty, Damaged: s.Damaged + s.Stale}
	sort.Slice(p.Events, func(i, j int) bool { return p.Events[i].Seq < p.Events[j].Seq })
	return p
}

// Merge combines per-worker event sequences into one deterministic stream,
// ordered by logical time (Seq) with a tie-break on candidate PID and then
// on full event content (Kind, CPU, PC, A, B, Note). The final content
// tie-break matters: two distinct events can legitimately share Seq and PID
// (e.g. a candidate's scan event and its classifier event at the same
// ledger offset), and which shard each lands in depends on the worker
// count. A stable sort alone would keep such ties in input order — a
// shard-schedule leak. With full content ordering the merged stream is
// independent of how the sequences were sharded across workers — the
// property the resurrection engine's determinism golden relies on.
func Merge(seqs ...[]Event) []Event {
	var out []Event
	for _, s := range seqs {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return eventLess(&out[i], &out[j]) })
	return out
}

// eventLess is Merge's total order: logical time, then PID, then the
// remaining event fields. Only fully identical events compare equal, so no
// ordering decision can depend on shard arrival order.
func eventLess(a, b *Event) bool {
	switch {
	case a.Seq != b.Seq:
		return a.Seq < b.Seq
	case a.PID != b.PID:
		return a.PID < b.PID
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.CPU != b.CPU:
		return a.CPU < b.CPU
	case a.PC != b.PC:
		return a.PC < b.PC
	case a.A != b.A:
		return a.A < b.A
	case a.B != b.B:
		return a.B < b.B
	default:
		return a.Note < b.Note
	}
}

// LastOfKind returns the most recent event of kind k, or nil.
func (p *Parsed) LastOfKind(k Kind) *Event {
	if p == nil {
		return nil
	}
	for i := len(p.Events) - 1; i >= 0; i-- {
		if p.Events[i].Kind == k {
			return &p.Events[i]
		}
	}
	return nil
}

// LastPanic returns the most recent panic event, or nil. This is the crash
// kernel's primary input: what the main kernel was doing when it died.
func (p *Parsed) LastPanic() *Event { return p.LastOfKind(KindPanic) }

// CountKind returns how many recovered events have kind k.
func (p *Parsed) CountKind(k Kind) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, ev := range p.Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}
