package resurrect_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"otherworld/internal/apps"
	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
	"otherworld/internal/sim"
)

// The zero-page programs. zpProg touches five anonymous pages (a pattern,
// zeros, a second pattern, zeros, a third pattern) and attaches a shared-memory segment of
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
	if err := env.MapAnon(zpVA, 5*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
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

func (zpProg) Step(env *kernel.Env) error        { env.Compute(10); return nil }
func (zpZeroShmProg) Step(env *kernel.Env) error { env.Compute(10); return nil }

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
// all-zero resident page to be marked zero with no data, and every other
// page and shared-memory frame in a dead user frame to keep nothing but,
// for a page, the CRC of its dead bytes: no commit writes such a frame, so
// the commit copies it. The last page's PTE is re-pointed at a free frame
// holding marker bytes, a frame the crash kernel's allocator manages and a
// commit may overwrite: that page alone keeps a copy of its own.
func TestScanKeepsNoZeroBuffers(t *testing.T) {
	m := newMachine(t)
	p, err := m.Start("zp", "zp-prog")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	if err := m.K.InjectOops("zero-scan"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	free := m.HW.Mem.NumFrames() - 1
	for m.HW.Mem.Kind(free) != phys.FrameFree {
		free--
	}
	marker := bytes.Repeat([]byte("free"), phys.PageSize/4)
	if err := m.HW.Mem.WriteAt(phys.FrameAddr(free), marker); err != nil {
		t.Fatal(err)
	}
	const stagedVA = zpVA + 4*phys.PageSize
	if err := m.HW.Mem.WriteU64(ptePhysAddr(t, m, p, stagedVA), uint64(layout.MakePresentPTE(free, true))); err != nil {
		t.Fatal(err)
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
	zero, nonZero, staged := 0, 0, 0
	for _, pg := range sp.Pages() {
		if pg.Swapped {
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
		case pg.CRC != crc32.Checksum(dead, layout.CRCTable):
			t.Fatalf("%s: CRC %#x, want the dead bytes' %#x", what, pg.CRC, crc32.Checksum(dead, layout.CRCTable))
		case pg.VA == stagedVA:
			if !bytes.Equal(pg.Data, marker) {
				t.Fatalf("%s: names free frame %d but keeps %d bytes, want its marker", what, free, len(pg.Data))
			}
			staged++
		case pg.Data != nil:
			t.Fatalf("%s: dead user frame %d keeps a %d-byte buffer", what, pg.Frame, len(pg.Data))
		default:
			nonZero++
		}
	}
	if zero < 2 || nonZero < 2 || staged != 1 {
		t.Fatalf("%d zero, %d non-zero and %d staged resident pages, want at least 2 and 2, and 1",
			zero, nonZero, staged)
	}

	frames, kept := sp.ShmFrames()
	if len(frames) != 1 || len(frames[0]) != 4 {
		t.Fatalf("%d shm segments scanned, want one of 4 frames", len(frames))
	}
	if kept[0] != nil {
		t.Fatalf("shm segment in dead user frames keeps %d frame copies", len(kept[0]))
	}
	want := zpShmContents()
	for i, f := range frames[0] {
		off := i * phys.PageSize
		n := min(phys.PageSize, zpShmSize-off)
		if !bytes.Equal(deadBytes(t, m, int(f), n), want[off:off+n]) {
			t.Fatalf("shm frame %d: dead bytes are not what zp-prog wrote", i)
		}
	}
}

// TestShmCommitBufferClearedPerSegment resurrects a process whose segment
// holds data and then, in the same pass, one whose segment of the same
// size is all zero. The commits copy both segments' frames through one
// engine frame buffer; the second must still install as all zeros and the
// first as its own bytes.
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

// crashedMySQL boots eight MySQL servers on a 256 MiB machine, loads 128
// seeded rows into them, runs them warm and crashes the kernel: the input
// of the per-layer resurrection benchmarks.
func crashedMySQL(b *testing.B, lazy bool) *core.Machine {
	b.Helper()
	const seed = 1
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.LazyInstall = lazy
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
	return m
}

// BenchmarkScanCandidate times one warmed MySQL candidate's scan of the dead
// image, the work each resurrection scan worker does per candidate: the
// descriptor, files, regions, page tables and every resident page.
func BenchmarkScanCandidate(b *testing.B) {
	m := crashedMySQL(b, false)
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

// BenchmarkInstallPerPage times the eager and the lazy install per resident
// page over crashedMySQL's input: one recovery, HandleFailure, and for the
// lazy install the sweep that resolves every page it speculated and the
// crash procedures did not touch, so both sides copy every page once. Building and crashing the machine is outside
// the timer. ns/page divides the timed work by the resident pages
// installed, which pages/op reports; B/op and allocs/op are per recovery.
func BenchmarkInstallPerPage(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			pages := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := crashedMySQL(b, lazy)
				b.StartTimer()
				out, err := m.HandleFailure()
				if err != nil || out.Result != core.ResultRecovered {
					b.Fatalf("HandleFailure: %v", err)
				}
				speculated := 0
				for _, pr := range out.Report.Procs {
					if pr.Outcome == resurrect.OutcomeFailed {
						b.Fatalf("pid %d failed: %v", pr.Candidate.PID, pr.Err)
					}
					pages += pr.PagesCopied
					speculated += pr.PagesSpeculated
				}
				if speculated > 0 {
					// The crash procedures' touches resolved some already.
					if _, err := m.K.Spec.SweepSpeculated(speculated); err != nil {
						b.Fatal(err)
					}
				}
				if lazy != (speculated > 0) {
					b.Fatalf("lazy %v but %d pages speculated", lazy, speculated)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
		})
	}
}
