package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// referenceStackRangeIntact is stackRangeIntact as a byte-by-byte loop:
// the range read with ReadAt and each byte compared with patternByte.
// TestStackRangeIntactMatchesReference holds the real method to it.
func referenceStackRangeIntact(k *Kernel, kstack uint64, from, to int) (int, bool) {
	buf := make([]byte, to-from)
	if err := k.M.Mem.ReadAt(kstack+uint64(from), buf); err != nil {
		return from, false
	}
	for i, b := range buf {
		if b != patternByte(k.P.Seed, kstack+uint64(from+i)) {
			return from + i, false
		}
	}
	return 0, true
}

// stackRanges are the kernel-stack ranges the kernel checks: the syscall
// gate's live window, the halt NMI's interrupt-frame word and the panic
// path's scratch area.
var stackRanges = [][2]int{
	{kstackScratchStart, kstackLiveEnd},
	{kstackNMIStart, kstackNMIEnd},
	{kstackScratchStart, phys.PageSize},
}

// stackFaultOffsets returns the offsets TestStackRangeIntactMatchesReference
// writes 4 bytes at: around every sector boundary, the NMI word's edges
// and the stack's last word.
func stackFaultOffsets() []int {
	offs := []int{kstackNMIStart - 4, kstackNMIStart, kstackNMIEnd - 2, kstackNMIEnd, phys.PageSize - 4}
	for b := phys.SectorSize; b < phys.PageSize; b += phys.SectorSize {
		offs = append(offs, b-4, b-2, b, b+4)
	}
	return offs
}

// TestStackRangeIntactMatchesReference holds stackRangeIntact to the byte
// loop over the three ranges the kernel checks, on fresh stacks, whose
// sectors past the context the stack pattern generates, and on
// resurrected processes' stacks in frames that last held a full user
// page, where the pattern is stored. On each, seeded 4-byte writes land
// around every sector boundary, some followed by the gate's repair of the
// live window; after each, every range must get the reference's answer,
// from exactly one counted read of the range.
func TestStackRangeIntactMatchesReference(t *testing.T) {
	k := bootTestKernel(t, nil)
	rng := rand.New(rand.NewSource(1))
	offsets := stackFaultOffsets()
	generatedWindows := 0 // checks of a live window the pattern still generated
	check := func(p *Process, step int) {
		t.Helper()
		if k.M.Mem.Generated(phys.FrameOf(p.D.KStack), k.stackPattern)&(1<<(kstackScratchStart/phys.SectorSize)) != 0 {
			generatedWindows++
		}
		for _, r := range stackRanges {
			wantOff, wantOK := referenceStackRangeIntact(k, p.D.KStack, r[0], r[1])
			before := k.M.Mem.Stats()
			off, ok := k.stackRangeIntact(p.D.KStack, r[0], r[1])
			after := k.M.Mem.Stats()
			if off != wantOff || ok != wantOK {
				t.Fatalf("%s step %d [%d, %d): got (%d, %v), reference (%d, %v)",
					p.D.Name, step, r[0], r[1], off, ok, wantOff, wantOK)
			}
			if ops, n := after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes; ops != 1 || n != int64(r[1]-r[0]) {
				t.Fatalf("%s step %d [%d, %d): %d reads of %d bytes, want 1 of %d",
					p.D.Name, step, r[0], r[1], ops, n, r[1]-r[0])
			}
		}
	}
	for round := 0; round < 40; round++ {
		fresh, err := k.CreateProcess(fmt.Sprintf("fresh-%d", round), "test-prog")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := k.M.Mem.Generated(phys.FrameOf(fresh.D.KStack), k.stackPattern), phys.AllSectors&^1; got != want {
			t.Fatalf("%s: generated sectors %08b, want %08b", fresh.D.Name, got, want)
		}
		used, err := k.Alloc.Alloc(phys.FrameUser)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.M.Mem.WriteAt(phys.FrameAddr(used), bytes.Repeat([]byte{0xc3}, phys.PageSize)); err != nil {
			t.Fatal(err)
		}
		k.Alloc.Free(used)
		resurrected, err := k.CreateProcessForResurrection(fmt.Sprintf("resurrected-%d", round), "test-prog")
		if err != nil {
			t.Fatal(err)
		}
		if resurrected.D.KStack != phys.FrameAddr(used) {
			t.Fatalf("%s: stack at %#x, want the freed user frame %#x", resurrected.D.Name, resurrected.D.KStack, phys.FrameAddr(used))
		}
		if err := k.InstallContext(resurrected, layout.Context{PC: 0x4000, SP: 0x7ff000, Saved: true}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Process{fresh, resurrected} {
			check(p, -1)
			for step := 0; step < 16; step++ {
				var junk [4]byte
				rng.Read(junk[:])
				if err := k.M.Mem.WriteAt(p.D.KStack+uint64(offsets[rng.Intn(len(offsets))]), junk[:]); err != nil {
					t.Fatal(err)
				}
				check(p, step)
				if rng.Intn(5) == 0 {
					if err := k.fillStackPattern(p.D.KStack, kstackScratchStart, kstackLiveEnd); err != nil {
						t.Fatal(err)
					}
					check(p, step)
				}
			}
		}
	}
	if generatedWindows < 100 {
		t.Fatalf("the live window was generated in %d checks; the op mix no longer exercises the generated path", generatedWindows)
	}
}
