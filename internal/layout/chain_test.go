package layout

import (
	"errors"
	"testing"
)

// chainOf returns a visit over a chain of n records at addresses 8, 16,
// ..., whose last record links to loopTo (0 ends the chain), counting the
// visits of each address.
func chainOf(n int, loopTo uint64, visits map[uint64]int) func(uint64) (uint64, error) {
	return func(addr uint64) (uint64, error) {
		visits[addr]++
		if addr == uint64(8*n) {
			return loopTo, nil
		}
		return addr + 8, nil
	}
}

func TestChainWalkStops(t *testing.T) {
	var c Chain
	for _, n := range []int{1, 16, 17, 100} {
		visits := map[uint64]int{}
		if got, err := c.Walk(8, TypeFile, chainOf(n, 0, visits)); got != n || err != nil {
			t.Fatalf("%d-record chain: walked %d, %v", n, got, err)
		}
		for _, loopTo := range []uint64{8, uint64(8 * n)} { // back to the head, onto itself
			visits := map[uint64]int{}
			got, err := c.Walk(8, TypeFile, chainOf(n, loopTo, visits))
			var ce *CorruptionError
			if got != n || !errors.As(err, &ce) || ce.Reason != LoopReason || ce.Addr != loopTo || ce.Want != TypeFile {
				t.Fatalf("%d-record chain looping to %#x: walked %d, %v", n, loopTo, got, err)
			}
			for addr, k := range visits {
				if k != 1 {
					t.Fatalf("%d-record chain looping to %#x: visited %#x %d times", n, loopTo, addr, k)
				}
			}
		}
	}
	bad := errors.New("bad record")
	got, err := c.Walk(8, TypeFile, func(addr uint64) (uint64, error) {
		if addr == 24 {
			return 0, bad
		}
		return addr + 8, nil
	})
	if got != 2 || err != bad {
		t.Fatalf("walk over a bad third record: walked %d, %v", got, err)
	}
}

// TestChainWalkAllocations: an empty or short walk allocates nothing, and a
// long walk reuses the visited set an earlier one grew.
func TestChainWalkAllocations(t *testing.T) {
	var c Chain
	next := func(n int) func(uint64) (uint64, error) {
		return func(addr uint64) (uint64, error) {
			if addr == uint64(8*n) {
				return 0, nil
			}
			return addr + 8, nil
		}
	}
	for _, n := range []int{0, 1, len(c.near)} {
		head := uint64(8)
		if n == 0 {
			head = 0
		}
		if a := testing.AllocsPerRun(100, func() { _, _ = c.Walk(head, TypeFile, next(n)) }); a != 0 {
			t.Errorf("%d-record walk: %v allocations, want 0", n, a)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = c.Walk(8, TypeFile, next(1000)) }); a != 0 {
		t.Errorf("repeated 1000-record walk: %v allocations, want 0", a)
	}
}
