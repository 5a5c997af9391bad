package hw

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// referenceTLB is the map-based TLB the indexed one replaced, kept as the
// model FuzzTLBOps replays every op on: the same slots, victim draw and
// counters, with membership in a Go map.
type referenceTLB struct {
	size    int
	slots   []uint64
	present map[uint64]bool
	rng     uint64

	Hits    uint64
	Misses  uint64
	Flushes uint64
}

func newReferenceTLB(entries int) *referenceTLB {
	if entries < 1 {
		entries = 1
	}
	return &referenceTLB{
		size:    entries,
		slots:   make([]uint64, 0, entries),
		present: make(map[uint64]bool, entries),
		rng:     0x9E3779B97F4A7C15,
	}
}

func (t *referenceTLB) rand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

func (t *referenceTLB) Access(vpn uint64) bool {
	if t.present[vpn] {
		t.Hits++
		return true
	}
	t.Misses++
	if len(t.slots) < t.size {
		t.slots = append(t.slots, vpn)
	} else {
		victim := int(t.rand() % uint64(t.size))
		delete(t.present, t.slots[victim])
		t.slots[victim] = vpn
	}
	t.present[vpn] = true
	return false
}

func (t *referenceTLB) Flush() {
	t.Flushes++
	t.slots = t.slots[:0]
	for k := range t.present {
		delete(t.present, k)
	}
}

func (t *referenceTLB) ResetStats() {
	t.Hits = 0
	t.Misses = 0
	t.Flushes = 0
}

// The FuzzTLBOps op codes; Access takes the remaining codes so that most
// ops translate.
const (
	tlbOpFlush = iota
	tlbOpResetStats
	numTLBOpCodes = 8
)

// The vpn families an Access op draws from, chosen by bits 3–4 of its
// first byte.
const (
	vpnSmall     = iota // 0–255, page 0 included
	vpnHigh             // 2^64-1 down to 2^64-256
	vpnLowBits          // equal low 20 bits, differing high bits
	vpnColliding        // one of 16 vpns homed on the index's wrap-around
)

const (
	tlbOpSize   = 3
	tlbMaxSize  = 130
	collidePool = 16
)

// collidingVPNs returns collidePool vpns homed on the last two and first
// two index entries of a TLB of the given size, four each, so their probe
// runs collide and wrap around the end of the index.
func collidingVPNs(size int) []uint64 {
	t := NewTLB(size)
	mask := len(t.index) - 1
	homes := []int{mask - 1, mask, 0, 1}
	var out []uint64
	for _, h := range homes {
		n := 0
		for v := uint64(1); n < collidePool/len(homes); v++ {
			if t.home(v) == h {
				out = append(out, v)
				n++
			}
		}
	}
	return out
}

// tlbOp is one decoded op.
type tlbOp struct {
	code int
	vpn  uint64
}

// decodeTLBOps reads the TLB size from the first byte and one op from
// every tlbOpSize bytes after it.
func decodeTLBOps(data []byte) (size int, ops []tlbOp) {
	if len(data) == 0 {
		return 1, nil
	}
	size = 1 + int(data[0])%tlbMaxSize
	pool := collidingVPNs(size)
	for data = data[1:]; len(data) >= tlbOpSize; data = data[tlbOpSize:] {
		op := tlbOp{code: int(data[0]) % numTLBOpCodes}
		a, b := uint64(data[1]), uint64(data[2])
		switch int(data[0]>>3) % 4 {
		case vpnSmall:
			op.vpn = a
		case vpnHigh:
			op.vpn = ^a
		case vpnLowBits:
			op.vpn = a<<20 | b&0xf
		case vpnColliding:
			op.vpn = pool[a%collidePool]
		}
		ops = append(ops, op)
	}
	return size, ops
}

// encodeTLBAccess is decodeTLBOps' inverse for an Access seed op.
func encodeTLBAccess(family int, a, b byte) []byte {
	return []byte{byte(numTLBOpCodes-1) | byte(family)<<3, a, b}
}

// replayTLBOps runs ops on a TLB and on the reference model and fails at
// the first op after which their results, counters or slots differ.
func replayTLBOps(t *testing.T, size int, ops []tlbOp) {
	t.Helper()
	tlb, ref := NewTLB(size), newReferenceTLB(size)
	for i, op := range ops {
		switch op.code {
		case tlbOpFlush:
			tlb.Flush()
			ref.Flush()
		case tlbOpResetStats:
			tlb.ResetStats()
			ref.ResetStats()
		default:
			if got, want := tlb.Access(op.vpn), ref.Access(op.vpn); got != want {
				t.Fatalf("size %d op %d: Access(%#x) = %v, reference %v", size, i, op.vpn, got, want)
			}
		}
		if tlb.Hits != ref.Hits || tlb.Misses != ref.Misses || tlb.Flushes != ref.Flushes {
			t.Fatalf("size %d op %d %+v: counters %d/%d/%d, reference %d/%d/%d", size, i, op,
				tlb.Hits, tlb.Misses, tlb.Flushes, ref.Hits, ref.Misses, ref.Flushes)
		}
		if !slices.Equal(tlb.slots, ref.slots) {
			t.Fatalf("size %d op %d %+v: slots %x, reference %x", size, i, op, tlb.slots, ref.slots)
		}
		checkTLBIndex(t, tlb)
	}
}

// checkTLBIndex requires the index to hold exactly one entry per slot,
// reachable from its vpn's home. A lost or leaked entry fails here, at the
// op that made it, before it can show as a wrong miss or fill the index.
func checkTLBIndex(t *testing.T, tlb *TLB) {
	t.Helper()
	used := 0
	for _, e := range tlb.index {
		if e != 0 {
			used++
		}
	}
	if used != len(tlb.slots) {
		t.Fatalf("index holds %d entries for %d slots", used, len(tlb.slots))
	}
	for s, vpn := range tlb.slots {
		if e := tlb.index[tlb.lookup(vpn)]; int(e) != s+1 {
			t.Fatalf("vpn %#x in slot %d: index entry %d", vpn, s, e)
		}
	}
}

// FuzzTLBOps replays decoded Access/Flush/ResetStats sequences on the
// indexed TLB and on the map-based reference over sizes 1–130, with vpns
// that collide in the index, and requires identical hits, misses, victim
// draws and counters after every op. The seed corpus runs as a unit test.
func FuzzTLBOps(f *testing.F) {
	seq := func(size byte, ops ...[]byte) []byte {
		return append([]byte{size - 1}, bytes.Join(ops, nil)...)
	}
	repeat := func(n int, op func(i int) []byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, op(i)...)
		}
		return out
	}
	// Every size-s TLB below cycles through more colliding vpns than it
	// holds, twice, so victims are drawn from the middle of probe runs
	// that wrap around the index and the survivors are looked up again.
	for _, size := range []byte{1, 2, 3, 4, 8, 12} {
		churn := repeat(3*collidePool, func(i int) []byte {
			return encodeTLBAccess(vpnColliding, byte(i*7), 0)
		})
		f.Add(seq(size, churn, churn))
	}
	// Page 0, the highest pages and equal-low-bit pages in one TLB, with a
	// flush and a counter reset in between.
	f.Add(seq(4,
		encodeTLBAccess(vpnSmall, 0, 0),
		encodeTLBAccess(vpnHigh, 0, 0),
		encodeTLBAccess(vpnHigh, 1, 0),
		encodeTLBAccess(vpnLowBits, 1, 3),
		encodeTLBAccess(vpnLowBits, 2, 3),
		encodeTLBAccess(vpnSmall, 0, 0),
		encodeTLBAccess(vpnLowBits, 3, 3),
		encodeTLBAccess(vpnHigh, 0, 0),
		[]byte{tlbOpFlush, 0, 0},
		encodeTLBAccess(vpnSmall, 0, 0),
		[]byte{tlbOpResetStats, 0, 0},
		encodeTLBAccess(vpnSmall, 0, 0),
		encodeTLBAccess(vpnHigh, 1, 0),
	))
	// The largest size, filled past capacity with a working set a little
	// larger than it, as the workloads' access patterns are.
	f.Add(seq(tlbMaxSize, repeat(400, func(i int) []byte {
		return encodeTLBAccess(vpnSmall+i%2, byte(i*37%140), 0)
	})))
	// A 64-entry TLB under a seeded mix of every family and op.
	rng := rand.New(rand.NewSource(64))
	mixed := make([]byte, 3*600)
	rng.Read(mixed)
	f.Add(seq(64, mixed))
	f.Fuzz(func(t *testing.T, data []byte) {
		size, ops := decodeTLBOps(data)
		replayTLBOps(t, size, ops)
	})
}
