package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// snapshotAddressSpace hashes every touched page of the process: resident
// pages by content, swapped pages by their swapped-in content (reading
// them swaps them back in, which is fine for a final comparison).
func snapshotAddressSpace(t *testing.T, m *Machine, p *kernel.Process) map[uint64][32]byte {
	t.Helper()
	env := &kernel.Env{K: m.K, P: p}
	out := make(map[uint64][32]byte)
	// Walk the region list; hash each region page that has been touched.
	present, swapped, err := m.K.ResidentPages(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = present
	_ = swapped
	buf := make([]byte, phys.PageSize)
	for _, r := range regionsOf(t, m, p) {
		for va := r.Start; va < r.End; va += phys.PageSize {
			if !pageTouched(t, m, p, va) {
				continue
			}
			if err := env.Read(va, buf); err != nil {
				t.Fatalf("read %#x: %v", va, err)
			}
			out[va] = sha256.Sum256(buf)
		}
	}
	return out
}

// regionsOf reads the process's region list.
func regionsOf(t *testing.T, m *Machine, p *kernel.Process) []*layout.MemRegion {
	t.Helper()
	var out []*layout.MemRegion
	var buf []byte
	cur := p.D.MemRegions
	for cur != 0 {
		r := new(layout.MemRegion)
		if err := r.Read(m.HW.Mem, cur, true, &buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
		cur = r.Next
	}
	return out
}

// pageTouched reports whether the page has a non-zero PTE (resident,
// swapped or speculated).
func pageTouched(t *testing.T, m *Machine, p *kernel.Process, va uint64) bool {
	t.Helper()
	return pteOf(m, p, va) != 0
}

// pteOf reads the page's PTE through a read-only page-table walk over raw
// memory; 0 when no page table covers va.
func pteOf(m *Machine, p *kernel.Process, va uint64) layout.PTE {
	dir, table, _, ok := layout.VirtSplit(va)
	if !ok {
		return 0
	}
	dirEnt, err := m.HW.Mem.ReadU64(p.D.PageDir + uint64(dir)*layout.PTESize)
	if err != nil || dirEnt == 0 {
		return 0
	}
	raw, err := m.HW.Mem.ReadU64(dirEnt + uint64(table)*layout.PTESize)
	if err != nil {
		return 0
	}
	return layout.PTE(raw)
}

// TestResurrectionIsByteExact is the fidelity property behind everything
// else: after a microreboot, every touched page of the address space —
// resident or swapped — is byte-for-byte identical, for both the eager
// install and the lazy one, which maps the dead frames in place (the
// paper's footnote 3). The lazy case also writes to a page still mapped
// from its dead frame: the write lands and the rest of the page survives.
func TestResurrectionIsByteExact(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		m := newTestMachine(t, func(o *Options) { o.LazyInstall = lazy })
		p, err := m.Start("big", "big-prog")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.K.SwapOutPages(p, 40); err != nil {
			t.Fatal(err)
		}
		before := snapshotAddressSpace(t, m, p)
		if len(before) == 0 {
			t.Fatal("empty snapshot")
		}
		// Snapshotting swapped pages swapped them back in; swap some out
		// again so the resurrection exercises both paths.
		if _, err := m.K.SwapOutPages(p, 25); err != nil {
			t.Fatal(err)
		}

		_ = m.K.InjectOops("fidelity")
		out, err := m.HandleFailure()
		if err != nil || out.Result != ResultRecovered {
			t.Fatalf("recover: %v %v", out, err)
		}
		pr := out.Report.Procs[0]
		np := m.K.Lookup(pr.NewPID)
		if lazy {
			if pr.PagesSpeculated == 0 {
				t.Fatal("lazy: no page speculated")
			}
			// big-prog page i holds the word i*7+1 and zeros after it.
			written := false
			for i := 0; i < bigPages && !written; i++ {
				va := bigVA + uint64(i)*phys.PageSize
				if !pteOf(m, np, va).Speculated() {
					continue
				}
				env := &kernel.Env{K: m.K, P: np}
				if err := env.WriteU64(va+8, 424242); err != nil {
					t.Fatalf("lazy: write to speculated page %#x: %v", va, err)
				}
				want := make([]byte, phys.PageSize)
				binary.LittleEndian.PutUint64(want, uint64(i)*7+1)
				binary.LittleEndian.PutUint64(want[8:], 424242)
				before[va] = sha256.Sum256(want)
				written = true
			}
			if !written {
				t.Fatal("lazy: no big-prog page left speculated")
			}
		}
		after := snapshotAddressSpace(t, m, np)

		if len(after) != len(before) {
			t.Fatalf("lazy=%v: touched pages %d -> %d", lazy, len(before), len(after))
		}
		for va, h := range before {
			if after[va] != h {
				t.Fatalf("lazy=%v: page %#x differs after resurrection", lazy, va)
			}
		}
	}
}

// TestCRCOffAllowsSilentRecordCorruption is the Section 4 ablation at the
// behaviour level: with checksums, a corrupted open-file offset is caught
// and resurrection degrades safely; without them, the process comes back
// with a silently wrong file position — undetected corruption.
func TestCRCOffAllowsSilentRecordCorruption(t *testing.T) {
	run := func(verifyCRC bool) (offset uint64, missing kernel.ResourceMask, failed bool) {
		m := newTestMachine(t, func(o *Options) { o.VerifyCRC = verifyCRC })
		p, err := m.Start("c", "counter")
		if err != nil {
			t.Fatal(err)
		}
		env := &kernel.Env{K: m.K, P: p}
		_ = m.FS.WriteFile("/f", bytes.Repeat([]byte{'x'}, 64))
		fd, err := env.Open("/f", layout.FlagRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Seek(fd, 10); err != nil {
			t.Fatal(err)
		}
		// Corrupt the FileRec's offset field in kernel memory: find it by
		// re-reading, flipping, and re-sealing WITHOUT updating the CRC
		// (a raw byte flip in the payload area).
		var rec layout.FileRec
		var buf []byte
		if err := rec.Read(m.HW.Mem, p.D.Files, false, &buf); err != nil {
			t.Fatal(err)
		}
		// The offset u64 sits after fd(4) + pathlen(2) + path("/f"=2) +
		// flags(4) = 12 bytes into the payload.
		offOff := p.D.Files + layout.HeaderSize + 12
		if err := m.HW.Mem.WriteAt(offOff, []byte{99}); err != nil {
			t.Fatal(err)
		}

		_ = m.K.InjectOops("crc ablation")
		out, err := m.HandleFailure()
		if err != nil || out.Result != ResultRecovered {
			t.Fatalf("recover: %v %v", out, err)
		}
		pr := out.Report.Procs[0]
		if pr.Outcome == 3 { // failed
			return 0, pr.Missing, true
		}
		np := m.K.Lookup(pr.NewPID)
		if err := rec.Read(m.HW.Mem, np.D.Files, false, &buf); err != nil {
			return 0, pr.Missing, false
		}
		return rec.Offset, pr.Missing, false
	}

	// With CRC: the corruption is detected; the file is reported missing
	// (resurrection carries on without it, ResFiles set) or fails.
	_, missing, failed := run(true)
	if !failed && missing&kernel.ResFiles == 0 {
		t.Fatalf("CRC on: corruption not detected (missing=%v)", missing)
	}
	// Without CRC: the process comes back with a wrong offset, silently.
	offset, missing, failed := run(false)
	if failed || missing&kernel.ResFiles != 0 {
		t.Fatalf("CRC off: structural validation should pass (failed=%v missing=%v)", failed, missing)
	}
	if offset == 10 {
		t.Fatal("CRC off: offset should have been silently corrupted")
	}
}
