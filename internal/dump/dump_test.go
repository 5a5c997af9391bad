package dump_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/dump"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/workload"
)

func newMachine(t *testing.T) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 192 << 20
	opts.Seed = 17
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func crashAndDump(t *testing.T) (*core.Machine, *dump.Image) {
	t.Helper()
	m := newMachine(t)
	d := workload.NewMySQLDriver(3)
	if err := d.Start(m); err != nil {
		t.Fatal(err)
	}
	workload.RunUntilIdle(m, d, 60, 3000)
	return m, kdump(t, m)
}

// kdump crashes m's kernel and parses the image its capture kernel writes.
func kdump(t *testing.T, m *core.Machine) *dump.Image {
	t.Helper()
	if err := m.K.InjectOops("x"); err == nil {
		t.Fatal("no panic")
	}
	out, err := m.HandleFailureKDump("/var/crash/vmcore")
	if err != nil || out.Transfer != core.ResultRecovered {
		t.Fatalf("kdump: %v %v", out, err)
	}
	data, err := m.FS.ReadFile("/var/crash/vmcore")
	if err != nil {
		t.Fatal(err)
	}
	img, err := dump.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestInspectFindsProcesses(t *testing.T) {
	_, img := crashAndDump(t)
	if img.Frames() == 0 {
		t.Fatal("empty image")
	}
	rep, err := dump.Inspect(img, kernel.GlobalsAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Procs) != 1 {
		t.Fatalf("procs = %d", len(rep.Procs))
	}
	p := rep.Procs[0]
	if p.Name != "mysqld" || p.Program != "mysqld" {
		t.Fatalf("proc = %+v", p)
	}
	if p.CrashProc == "" {
		t.Fatal("crash procedure registration missing from dump")
	}
	if p.ResidentPages == 0 {
		t.Fatal("no resident pages counted")
	}
	if p.Sockets != 1 {
		t.Fatalf("sockets = %d", p.Sockets)
	}
	out := dump.Render(rep)
	if !strings.Contains(out, "mysqld") || !strings.Contains(out, "sockets=1") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestInspectStopsAtListLoop: a stale Next that points a record back at
// itself must not make the inventory repeat it. The walks keep each process
// and each file once and warn about both loops. The records are re-sealed
// with valid CRCs: logically wrong but intact state, the nastier
// corruption class.
func TestInspectStopsAtListLoop(t *testing.T) {
	m := newMachine(t)
	tail, err := m.Start("sh-1", apps.ProgShell)
	if err != nil {
		t.Fatal(err)
	}
	head, err := m.Start("sh-2", apps.ProgShell)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	if err := m.FS.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := (&kernel.Env{K: m.K, P: head}).Open("/f", layout.FlagRead); err != nil {
		t.Fatal(err)
	}
	var rec layout.FileRec
	var buf []byte
	if err := rec.Read(m.HW.Mem, head.D.Files, true, &buf); err != nil {
		t.Fatal(err)
	}
	rec.Next = head.D.Files
	if err := m.HW.Mem.WriteAt(head.D.Files, rec.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
	// The process list runs newest first, so sh-1's descriptor is the tail.
	d := tail.D
	d.Next = tail.Addr
	if err := m.HW.Mem.WriteAt(tail.Addr, d.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}

	rep, err := dump.Inspect(kdump(t, m), kernel.GlobalsAddr)
	if err != nil {
		t.Fatal(err)
	}
	pids := make(map[uint32]bool)
	for _, p := range rep.Procs {
		pids[p.PID] = true
	}
	if len(rep.Procs) != 2 || len(pids) != 2 {
		t.Fatalf("%d entries for %d distinct PIDs, want 2 and 2", len(rep.Procs), len(pids))
	}
	if files := rep.Procs[0].OpenFiles; len(files) != 1 || files[0] != "/f@0" {
		t.Fatalf("%s open files = %v, want [/f@0]", rep.Procs[0].Name, files)
	}
	warnings := strings.Join(rep.Warnings, "\n")
	for _, want := range []string{"process list loops back", "file list loops back"} {
		if !strings.Contains(warnings, want) {
			t.Errorf("warnings %q lack %q", rep.Warnings, want)
		}
	}
}

// TestInspectWarnsOnCorruptRecords: a record the inventory cannot decode
// is reported, not silently dropped. One payload byte of a warmed MySQL
// socket record and of an Apache shm record is flipped before the dump;
// each must leave a warning naming its list and the record's address.
func TestInspectWarnsOnCorruptRecords(t *testing.T) {
	for _, tc := range []struct {
		name   string
		driver workload.Driver
		list   string
		head   func(*kernel.Process) uint64
	}{
		{"mysql-socket", workload.NewMySQLDriver(3), "socket list", func(p *kernel.Process) uint64 { return p.D.Sockets }},
		{"apache-shm", workload.NewApacheDriver(3), "shm list", func(p *kernel.Process) uint64 { return p.D.Shm }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t)
			if err := tc.driver.Start(m); err != nil {
				t.Fatal(err)
			}
			workload.RunUntilIdle(m, tc.driver, 60, 3000)
			var addr uint64
			var pid uint32
			for _, p := range m.K.Procs() {
				if addr = tc.head(p); addr != 0 {
					pid = p.PID
					break
				}
			}
			if addr == 0 {
				t.Fatalf("no process has a %s", tc.list)
			}
			b := make([]byte, 1)
			at := addr + layout.HeaderSize
			if err := m.HW.Mem.ReadAt(at, b); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0xFF
			if err := m.HW.Mem.WriteAt(at, b); err != nil {
				t.Fatal(err)
			}
			rep, err := dump.Inspect(kdump(t, m), kernel.GlobalsAddr)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("pid %d %s record at %#x", pid, tc.list, addr)
			for _, w := range rep.Warnings {
				if strings.HasPrefix(w, want) {
					return
				}
			}
			t.Fatalf("warnings %q lack %q", rep.Warnings, want)
		})
	}
}

// TestSparseDumpRoundTrip: Parse reads back what AppendFrame writes. Each
// record is the 12-byte header plus one page, each captured frame reads
// back its page, and a frame left out (3 holds data, but is not captured)
// reads zero.
func TestSparseDumpRoundTrip(t *testing.T) {
	mem := phys.NewMem(8 * phys.PageSize)
	page := make([]byte, phys.PageSize)
	for _, f := range []int{2, 3, 5} {
		for i := range page {
			page[i] = byte(i*7 + f)
		}
		if err := mem.WriteAt(phys.FrameAddr(f), page); err != nil {
			t.Fatal(err)
		}
	}
	var data, rec []byte
	for _, f := range []int{0, 2, 5} {
		var err error
		if rec, err = dump.AppendFrame(rec[:0], mem, f); err != nil {
			t.Fatal(err)
		}
		if len(rec) != 12+phys.PageSize {
			t.Fatalf("frame %d record is %d bytes, want %d", f, len(rec), 12+phys.PageSize)
		}
		data = append(data, rec...)
	}
	img, err := dump.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Frames() != 3 || img.MaxFrame != 5 {
		t.Fatalf("parsed %d frames up to %d, want 3 up to 5", img.Frames(), img.MaxFrame)
	}
	want := make([]byte, phys.PageSize)
	got := make([]byte, phys.PageSize)
	for f := 0; f < mem.NumFrames(); f++ {
		if err := mem.ReadAt(phys.FrameAddr(f), want); err != nil {
			t.Fatal(err)
		}
		if f != 0 && f != 2 && f != 5 {
			clear(want)
		}
		if err := img.ReadAt(phys.FrameAddr(f), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d reads back differently", f)
		}
	}
}

func TestParseRejectsTruncation(t *testing.T) {
	m, _ := crashAndDump(t)
	data, err := m.FS.ReadFile("/var/crash/vmcore")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dump.Parse(data[:len(data)-100]); err == nil {
		t.Fatal("truncated image should fail to parse")
	}
	if _, err := dump.Parse(data[:5]); err == nil {
		t.Fatal("truncated header should fail to parse")
	}
}

// TestImageIsReadOnly: a dump is immutable evidence. An Image offers the
// decoders a layout.Reader and has no write path at all.
func TestImageIsReadOnly(t *testing.T) {
	_, img := crashAndDump(t)
	if _, ok := any(img).(layout.MemoryAccessor); ok {
		t.Fatal("dumps must be immutable")
	}
}

func TestMissingFramesReadZero(t *testing.T) {
	img, err := dump.Parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0xFF, 0xFF}
	if err := img.ReadAt(12345, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatal("missing frames should read as zeroes")
	}
}
