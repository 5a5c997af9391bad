package hw

// TLB is a fully associative translation lookaside buffer with (seeded)
// random replacement, the policy x86 TLBs approximate; unlike FIFO it
// degrades smoothly as the working set exceeds capacity instead of
// thrashing all-or-nothing. The simulation charges one entry per virtual
// page; the user-space-protection mode flushes the whole TLB on every
// page-table-set switch (kernel entry and exit), which is exactly the cost
// the paper measures in Table 3: "overhead mainly due to TLB flush
// operations that occur on every page table switch".
type TLB struct {
	size  int
	slots []uint64
	// index is an open-addressed, linearly probed table over slots: each
	// entry is a slot number plus one, 0 marks an empty entry, and a
	// cached vpn's entry lies at or after its home, with no empty entry
	// in between. Its length is a power of two at least twice size, so
	// it is never more than half full.
	index []int32
	shift uint
	rng   uint64

	// Counters are cumulative since power-on or the last ResetStats.
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	if entries < 1 {
		entries = 1
	}
	bits := uint(1)
	for 1<<bits < 2*entries {
		bits++
	}
	return &TLB{
		size:  entries,
		slots: make([]uint64, 0, entries),
		index: make([]int32, 1<<bits),
		shift: 64 - bits,
		rng:   0x9E3779B97F4A7C15,
	}
}

// rand is a tiny deterministic xorshift for replacement choices.
func (t *TLB) rand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// home is vpn's first index entry: the top bits of a Fibonacci hash, so
// neighbouring pages and pages with equal low bits spread out.
func (t *TLB) home(vpn uint64) int {
	return int(vpn * 0x9E3779B97F4A7C15 >> t.shift)
}

// lookup returns the index entry holding vpn, or the empty entry where
// its probe ends.
func (t *TLB) lookup(vpn uint64) int {
	mask := len(t.index) - 1
	i := t.home(vpn)
	for t.index[i] != 0 && t.slots[t.index[i]-1] != vpn {
		i = (i + 1) & mask
	}
	return i
}

// unindex deletes the entry at i by backward shift: each later entry of
// the probe run moves into the hole unless the hole lies before its home,
// so every remaining vpn stays reachable without tombstones.
func (t *TLB) unindex(i int) {
	mask := len(t.index) - 1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		h := t.home(t.slots[t.index[j]-1])
		if (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// Size returns the entry capacity.
func (t *TLB) Size() int { return t.size }

// Access simulates a translation of virtual page number vpn, returning true
// on a hit. Misses install the translation, evicting a random victim when
// full.
func (t *TLB) Access(vpn uint64) bool {
	i := t.lookup(vpn)
	if t.index[i] != 0 {
		t.Hits++
		return true
	}
	t.Misses++
	slot := len(t.slots)
	if slot < t.size {
		t.slots = append(t.slots, vpn)
	} else {
		slot = int(t.rand() % uint64(t.size))
		t.unindex(t.lookup(t.slots[slot]))
		t.slots[slot] = vpn
		// The deletion may have emptied an entry on vpn's probe run.
		i = t.lookup(vpn)
	}
	t.index[i] = int32(slot + 1)
	return false
}

// Flush invalidates every entry, as a page-table base register reload does.
func (t *TLB) Flush() {
	t.Flushes++
	t.slots = t.slots[:0]
	clear(t.index)
}

// ResetStats clears the counters without touching the entries, so a
// benchmark can measure a steady-state window.
func (t *TLB) ResetStats() {
	t.Hits = 0
	t.Misses = 0
	t.Flushes = 0
}
