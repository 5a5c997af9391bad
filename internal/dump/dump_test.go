package dump_test

import (
	"strings"
	"testing"

	_ "otherworld/internal/apps" // register the paper's applications

	"otherworld/internal/core"
	"otherworld/internal/dump"
	"otherworld/internal/kernel"
	"otherworld/internal/workload"
)

func crashAndDump(t *testing.T) (*core.Machine, *dump.Image) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 192 << 20
	opts.Seed = 17
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	d := workload.NewMySQLDriver(3)
	if err := d.Start(m); err != nil {
		t.Fatal(err)
	}
	workload.RunUntilIdle(m, d, 60, 3000)
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
	return m, img
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

func TestImageIsReadOnly(t *testing.T) {
	_, img := crashAndDump(t)
	if err := img.WriteAt(0, []byte{1}); err == nil {
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
