package kernel

import (
	"bytes"
	"testing"

	"otherworld/internal/layout"
	"otherworld/internal/phys"
)

// TestElidedPageInstallWritesOneFrame: the allocator zeroes every frame it
// hands out, so an elided (all-zero) page costs the install no write of its
// own: installed into an existing page table, it writes exactly one 4 KiB
// frame and one write operation fewer than a copied page.
func TestElidedPageInstallWritesOneFrame(t *testing.T) {
	k := bootTestKernel(t, nil)
	p, err := k.CreateProcessForResurrection("r", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	const va = 0x400000
	if err := k.MapRegion(p, va, 3*phys.PageSize, layout.ProtRead|layout.ProtWrite, layout.RegionAnon, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The first install builds the page table the measured two share.
	if err := k.InstallResidentPage(p, va, nil, true, false); err != nil {
		t.Fatal(err)
	}
	written := func(va uint64, data []byte) phys.Stats {
		t.Helper()
		before := k.M.Mem.Stats()
		if err := k.InstallResidentPage(p, va, data, true, false); err != nil {
			t.Fatal(err)
		}
		after := k.M.Mem.Stats()
		return phys.Stats{WriteOps: after.WriteOps - before.WriteOps, WriteBytes: after.WriteBytes - before.WriteBytes}
	}
	copied := written(va+phys.PageSize, bytes.Repeat([]byte{0xA5}, phys.PageSize))
	elided := written(va+2*phys.PageSize, nil)
	if d := copied.WriteBytes - elided.WriteBytes; d != phys.PageSize {
		t.Errorf("an elided page wrote %d B, a copied one %d B: want exactly one frame (%d B) fewer",
			elided.WriteBytes, copied.WriteBytes, phys.PageSize)
	}
	if d := copied.WriteOps - elided.WriteOps; d != 1 {
		t.Errorf("an elided page took %d write ops, a copied one %d: want one fewer", elided.WriteOps, copied.WriteOps)
	}
	env := &Env{K: k, P: p}
	for i, want := range []uint64{0, 0xA5A5A5A5A5A5A5A5, 0} {
		if got, err := env.ReadU64(va + uint64(i)*phys.PageSize); err != nil || got != want {
			t.Errorf("page %d reads %#x, %v; want %#x", i, got, err, want)
		}
	}
}

// TestInstallTerminalOpensOnce: the crash kernel restores a terminal in one
// open that takes the dead record's geometry, cursor and settings and its
// screen. It reads no kernel record back, so phys reads stay where they
// were; it writes what a fresh open writes, with the dead screen in place
// of the blank one; and the new record and screen carry the dead
// terminal's state.
func TestInstallTerminalOpensOnce(t *testing.T) {
	k := bootTestKernel(t, nil)
	fresh, err := k.CreateProcess("f", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcessForResurrection("r", "test-prog")
	if err != nil {
		t.Fatal(err)
	}
	traffic := func(open func() error) phys.Stats {
		t.Helper()
		before := k.M.Mem.Stats()
		if err := open(); err != nil {
			t.Fatal(err)
		}
		after := k.M.Mem.Stats()
		return phys.Stats{
			ReadOps: after.ReadOps - before.ReadOps, ReadBytes: after.ReadBytes - before.ReadBytes,
			WriteOps: after.WriteOps - before.WriteOps, WriteBytes: after.WriteBytes - before.WriteBytes,
		}
	}
	opened := traffic(func() error { return k.OpenTerminal(fresh, 1) })
	old := layout.Terminal{Index: 3, Rows: 10, Cols: 40, CursorRow: 2, CursorCol: 7, Settings: 0x5, Screen: 0xdead000}
	screen := bytes.Repeat([]byte{'x'}, int(old.Rows)*int(old.Cols))
	installed := traffic(func() error { return k.InstallTerminal(p, &old, screen) })
	if installed.ReadOps != 0 {
		t.Errorf("InstallTerminal read %d B in %d ops, want no read", installed.ReadBytes, installed.ReadOps)
	}
	blank := int64(defaultTTYRows * defaultTTYCols)
	if installed.WriteOps != opened.WriteOps || installed.WriteBytes-opened.WriteBytes != int64(len(screen))-blank {
		t.Errorf("InstallTerminal wrote %d B in %d ops, a fresh open %d B in %d ops: want the same ops, with the %d B screen for the %d B blank",
			installed.WriteBytes, installed.WriteOps, opened.WriteBytes, opened.WriteOps, len(screen), blank)
	}
	var rec layout.Terminal
	if _, err := k.readTerminalRec(p, &rec); err != nil {
		t.Fatal(err)
	}
	got := rec
	got.Screen = old.Screen
	if got != old {
		t.Errorf("restored record %+v, want the dead one's fields %+v", rec, old)
	}
	rows, err := k.ScreenContents(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(old.Rows) || !bytes.Equal(rows[0], screen[:old.Cols]) {
		t.Errorf("restored screen has %d rows, row 0 %q", len(rows), rows[0])
	}
}
