package resurrect_test

import (
	"bytes"
	"fmt"
	"testing"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/hw"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
	"otherworld/internal/sim"
)

// The zero-page programs. zpProg touches four anonymous pages (a pattern,
// zeros, a second pattern, zeros) and attaches a shared-memory segment of
// zpShmSize bytes: a patterned frame, two all-zero frames and a 100-byte
// tail frame whose last byte is set. zpZeroShmProg attaches a segment of the
// same size and never writes it.
type (
	zpProg        struct{}
	zpZeroShmProg struct{}
)

const (
	zpVA      = 0x90000
	zpShmVA   = 0x400000
	zpShmSize = 3*phys.PageSize + 100
)

// zpShmContents is what zpProg writes into its segment.
func zpShmContents() []byte {
	b := make([]byte, zpShmSize)
	for i := 0; i < phys.PageSize; i++ {
		b[i] = byte(i%253) + 1
	}
	b[zpShmSize-1] = 0x42
	return b
}

func (zpProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(zpVA, 4*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		page := make([]byte, phys.PageSize)
		if i%2 == 0 {
			for j := range page {
				page[j] = byte(j*7+i) | 1
			}
		}
		if err := env.Write(zpVA+uint64(i)*phys.PageSize, page); err != nil {
			return err
		}
	}
	if err := env.ShmGet(0x2e80, zpShmSize, zpShmVA); err != nil {
		return err
	}
	return env.Write(zpShmVA, zpShmContents())
}

func (zpZeroShmProg) Boot(env *kernel.Env) error {
	return env.ShmGet(0x2e81, zpShmSize, zpShmVA)
}

func (zpProg) Step(env *kernel.Env) error         { env.Compute(10); return nil }
func (zpZeroShmProg) Step(env *kernel.Env) error  { env.Compute(10); return nil }
func (zpProg) Rehydrate(*kernel.Env) error        { return nil }
func (zpZeroShmProg) Rehydrate(*kernel.Env) error { return nil }

func init() {
	kernel.RegisterProgram("zp-prog", func() kernel.Program { return zpProg{} })
	kernel.RegisterProgram("zp-zero-shm-prog", func() kernel.Program { return zpZeroShmProg{} })
}

// deadBytes reads n bytes of dead frame f straight from physical memory.
func deadBytes(t *testing.T, m *core.Machine, f, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := m.HW.Mem.ReadAt(phys.FrameAddr(f), b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScanKeepsNoZeroBuffers scans a dead zpProg and requires every
// all-zero resident page to be marked zero with no data, and every
// all-zero shared-memory frame to keep nothing, while each non-zero page
// and frame keeps its own buffer holding exactly the dead bytes.
func TestScanKeepsNoZeroBuffers(t *testing.T) {
	m := newMachine(t)
	if _, err := m.Start("zp", "zp-prog"); err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	if err := m.K.InjectOops("zero-scan"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	e := resurrect.NewEngine(m.K, kernel.GlobalsAddr, true)
	cands, err := e.ListCandidates()
	if err != nil || len(cands) != 1 {
		t.Fatalf("candidates %v, err %v", cands, err)
	}
	sp := resurrect.NewScanProbe(e).Scan(cands[0])
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}
	owners := make(map[*byte]string)
	keep := func(what string, data []byte) {
		t.Helper()
		if prev, ok := owners[&data[0]]; ok {
			t.Fatalf("%s shares its buffer with %s", what, prev)
		}
		owners[&data[0]] = what
	}
	zero, nonZero := 0, 0
	for _, pg := range sp.Pages() {
		if pg.Swapped || pg.Mapped {
			continue
		}
		what := fmt.Sprintf("page %#x", pg.VA)
		dead := deadBytes(t, m, pg.Frame, phys.PageSize)
		switch {
		case pg.Zero != phys.PageIsZero(dead):
			t.Fatalf("%s: zero mark %v, dead frame all zero %v", what, pg.Zero, !pg.Zero)
		case pg.Zero && pg.Data != nil:
			t.Fatalf("%s: all-zero page keeps a %d-byte buffer", what, len(pg.Data))
		case pg.Zero:
			zero++
		case !bytes.Equal(pg.Data, dead):
			t.Fatalf("%s: plan copy differs from the dead frame", what)
		default:
			keep(what, pg.Data)
			nonZero++
		}
	}
	if zero < 2 || nonZero < 2 {
		t.Fatalf("%d zero and %d non-zero resident pages, want at least 2 of each", zero, nonZero)
	}

	frames, kept := sp.ShmFrames()
	if len(kept) != 1 || len(kept[0]) != 4 {
		t.Fatalf("%d shm segments scanned, want one of 4 frames", len(kept))
	}
	want := zpShmContents()
	for i, fr := range kept[0] {
		what := fmt.Sprintf("shm frame %d", i)
		off := i * phys.PageSize
		n := min(phys.PageSize, zpShmSize-off)
		dead := deadBytes(t, m, int(frames[0][i]), n)
		if !bytes.Equal(dead, want[off:off+n]) {
			t.Fatalf("%s: dead bytes are not what zp-prog wrote", what)
		}
		if phys.PageIsZero(dead) {
			if fr != nil {
				t.Fatalf("%s: all-zero frame keeps a %d-byte buffer", what, len(fr))
			}
			continue
		}
		if !bytes.Equal(fr, dead) {
			t.Fatalf("%s: plan copy differs from the dead frame", what)
		}
		keep(what, fr)
	}
}

// TestShmCommitBufferClearedPerSegment resurrects a process whose segment
// holds data and then, in the same pass, one whose segment of the same
// size is all zero. The commits assemble both in one buffer; the second must
// still install as all zeros and the first as its own bytes.
func TestShmCommitBufferClearedPerSegment(t *testing.T) {
	m := newMachine(t)
	// The process list is newest first, so the data segment commits first.
	for _, p := range []struct{ name, prog string }{{"zp-zero", "zp-zero-shm-prog"}, {"zp-data", "zp-prog"}} {
		if _, err := m.Start(p.name, p.prog); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(20)
	if err := m.K.InjectOops("shm-commit"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	out, err := m.HandleFailure()
	if err != nil || out.Result != core.ResultRecovered {
		t.Fatalf("HandleFailure: %v", err)
	}
	procs := out.Report.Procs
	if len(procs) != 2 || procs[0].Candidate.Name != "zp-data" {
		t.Fatalf("%d processes resurrected, want zp-data then zp-zero", len(procs))
	}
	for _, pr := range procs {
		if pr.Outcome != resurrect.OutcomeContinued {
			t.Fatalf("%s: outcome %v (%v)", pr.Candidate.Name, pr.Outcome, pr.Err)
		}
		np := m.K.Lookup(pr.NewPID)
		got := make([]byte, zpShmSize)
		if err := m.K.ReadVM(np, zpShmVA, got); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, zpShmSize)
		if pr.Candidate.Name == "zp-data" {
			want = zpShmContents()
		}
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: installed segment differs at byte %d: %#x, want %#x",
				pr.Candidate.Name, i, got[i], want[i])
		}
	}
}

// BenchmarkScanCandidate times one warmed MySQL candidate's scan of the dead
// image, the work each resurrection scan worker does per candidate: the
// descriptor, files, regions, page tables and every resident page.
func BenchmarkScanCandidate(b *testing.B) {
	const seed = 1
	opts := core.DefaultOptions()
	opts.HW = hw.Config{MemoryBytes: 256 << 20, NumCPUs: 2, TLBEntries: 64, WatchdogEnabled: true}
	opts.CrashRegionMB = 16
	opts.Seed = seed
	m, err := core.NewMachine(opts)
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		if _, err := m.Start(fmt.Sprintf("mysqld-%d", j), apps.ProgMySQL); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(seed)
	for i := 0; i < 128; i++ {
		row := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 8+rng.Intn(113))
		m.Net.Deliver(apps.MySQLPort, []byte(fmt.Sprintf("I %d %s", i+1, row)))
	}
	if res := m.Run(600); res.Panic != nil {
		b.Fatal(res.Panic)
	}
	if err := m.K.InjectOops("bench"); err == nil {
		b.Fatal("InjectOops returned nil")
	}
	e := resurrect.NewEngine(m.K, kernel.GlobalsAddr, true)
	cands, err := e.ListCandidates()
	if err != nil || len(cands) == 0 {
		b.Fatalf("candidates %v, err %v", cands, err)
	}
	probe := resurrect.NewScanProbe(e)
	if err := probe.Scan(cands[0]).Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe.Scan(cands[0])
	}
}
