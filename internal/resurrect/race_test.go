package resurrect_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"otherworld/internal/core"
	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/phys"
	"otherworld/internal/resurrect"
)

// These tests exist for the -race pass (make race / make verify): the scan
// phase fans candidates out to concurrent workers that all read the dead
// kernel's memory and the shared swap device, so the detector sees the real
// worker pool, not a mock.

// raceMachine builds a machine with n cheap processes and the resurrection
// pool pinned to the given width.
func raceMachine(t *testing.T, n, workers int) *core.Machine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 77
	opts.Resurrection.Workers = workers
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := m.Start(fmt.Sprintf("p%d", i), "t1-plain"); err != nil {
			t.Fatalf("start p%d: %v", i, err)
		}
	}
	m.Run(30)
	return m
}

// TestWorkerPoolOverlappingCandidates runs more candidates than workers so
// every worker scans several in sequence while its peers are mid-candidate
// — the overlap that would expose an unsharded counter or reader.
func TestWorkerPoolOverlappingCandidates(t *testing.T) {
	m := raceMachine(t, 8, 3)
	out := recoverOutcome(t, m)
	if got := out.Report.Succeeded(); got != 8 {
		t.Fatalf("succeeded = %d, want 8", got)
	}
}

// TestWorkerPoolCorruptedPageTable corrupts one candidate's page directory
// before the crash: under -race this exercises the scan error paths while
// other workers are still copying pages, and the damage must stay contained
// to the corrupted process at any pool width.
func TestWorkerPoolCorruptedPageTable(t *testing.T) {
	run := func(workers int) *resurrect.Report {
		m := raceMachine(t, 6, workers)
		victim := m.K.Procs()[2]
		if err := m.HW.Mem.WriteU64(victim.D.PageDir, 0xDEADBEEF); err != nil {
			t.Fatal(err)
		}
		return recoverOutcome(t, m).Report
	}
	rep4 := run(4)
	failed := 0
	for _, pr := range rep4.Procs {
		if pr.Outcome == resurrect.OutcomeFailed {
			failed++
		}
	}
	if failed != 1 || rep4.Succeeded() != 5 {
		t.Fatalf("failed=%d succeeded=%d, want 1/5", failed, rep4.Succeeded())
	}
	// The failure handling itself must stay deterministic across widths.
	if fp1, fp4 := run(1).Fingerprint(), rep4.Fingerprint(); fp1 != fp4 {
		t.Fatalf("corrupted-candidate fingerprint differs between Workers=1 and Workers=4")
	}
}

// hoProg lays out what crosses the scan-to-commit hand-off: a page of
// PID-tagged bytes at hoVA and an all-zero page after it, a one-page
// shared-memory segment at hoShmVA holding PID-tagged bytes, and a
// terminal, indexed by the PID, with a line of text on it.
type hoProg struct{}

const (
	hoVA    = 0xC0000
	hoShmVA = 0x600000
)

// hoBytes is a page of bytes tagged with tag.
func hoBytes(tag uint32) []byte {
	b := make([]byte, phys.PageSize)
	for i := range b {
		b[i] = (byte(i%241) ^ byte(tag)) | 1
	}
	return b
}

func (hoProg) Boot(env *kernel.Env) error {
	if err := env.MapAnon(hoVA, 2*phys.PageSize, layout.ProtRead|layout.ProtWrite); err != nil {
		return err
	}
	if err := env.Write(hoVA, hoBytes(env.PID())); err != nil {
		return err
	}
	if err := env.Write(hoVA+phys.PageSize, make([]byte, phys.PageSize)); err != nil {
		return err
	}
	if err := env.ShmGet(0x4800+uint64(env.PID()), phys.PageSize, hoShmVA); err != nil {
		return err
	}
	if err := env.Write(hoShmVA, hoBytes(env.PID()+1)); err != nil {
		return err
	}
	if err := env.TermOpen(env.PID()); err != nil {
		return err
	}
	return env.TermWrite([]byte(fmt.Sprintf("hand-off %d\n", env.PID())))
}

func (hoProg) Step(env *kernel.Env) error {
	env.Compute(10)
	return nil
}

// hoTouch is a crash procedure that reads the process's page at hoVA.
func hoTouch(env *kernel.Env, _ kernel.ResourceMask) (kernel.CrashAction, error) {
	if _, err := env.ReadU64(hoVA); err != nil {
		return 0, err
	}
	return kernel.ActionContinue, nil
}

func init() {
	kernel.RegisterProgram("ho-prog", func() kernel.Program { return hoProg{} })
	kernel.RegisterCrashProc("ho-touch", hoTouch)
}

// hoMachine boots two ho-prog processes, ho-a and then ho-b, registers the
// crash procedure touch (when not empty) for ho-b, runs them and crashes
// the kernel.
func hoMachine(t *testing.T, workers int, stream, lazy bool, touch string) (*core.Machine, [2]*kernel.Process) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.HW.MemoryBytes = 128 << 20
	opts.Seed = 31
	opts.Resurrection.Workers = workers
	opts.Resurrection.Stream = stream
	opts.LazyInstall = lazy
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	var procs [2]*kernel.Process
	for i, name := range []string{"ho-a", "ho-b"} {
		if procs[i], err = m.Start(name, "ho-prog"); err != nil {
			t.Fatal(err)
		}
	}
	if touch != "" {
		if err := m.K.RegisterCrashProcedure(procs[1], touch); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(20)
	if err := m.K.InjectOops("hand-off"); err == nil {
		t.Fatal("InjectOops returned nil")
	}
	return m, procs
}

// hoRecover recovers m and requires both candidates back.
func hoRecover(t *testing.T, m *core.Machine) *resurrect.Report {
	t.Helper()
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != core.ResultRecovered || len(out.Report.Procs) != 2 {
		t.Fatalf("result %v with %d procs", out.Result, len(out.Report.Procs))
	}
	for _, pr := range out.Report.Procs {
		if pr.Outcome != resurrect.OutcomeContinued {
			t.Fatalf("pid %d: outcome %v (%v)", pr.Candidate.PID, pr.Outcome, pr.Err)
		}
	}
	return out.Report
}

// reseal rewrites the record at addr, CRC-valid, with the change edit
// makes to it.
func reseal[R any, P interface {
	*R
	Read(layout.Reader, uint64, bool, *[]byte) error
	AppendRecord([]byte) []byte
}](t *testing.T, m *core.Machine, addr uint64, edit func(P)) {
	t.Helper()
	rec := P(new(R))
	var buf []byte
	if err := rec.Read(m.HW.Mem, addr, true, &buf); err != nil {
		t.Fatal(err)
	}
	edit(rec)
	if err := m.HW.Mem.WriteAt(addr, rec.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
}

// barrierTargets are the three things a scan reads out of a dead frame
// for its commit to install: a resident page, a shared-memory frame and a
// terminal screen. For each, written names the frame a clean pass's first
// commit writes for it, aim points the victim's dead reference at frame f,
// and got reads back what the resurrected process holds there.
var barrierTargets = []struct {
	name    string
	written func(t *testing.T, m *core.Machine, np *kernel.Process) int
	aim     func(t *testing.T, m *core.Machine, victim *kernel.Process, f int)
	got     func(t *testing.T, m *core.Machine, np *kernel.Process) []byte
}{
	{
		name: "page",
		written: func(t *testing.T, m *core.Machine, np *kernel.Process) int {
			pte, err := m.HW.Mem.ReadU64(ptePhysAddr(t, m, np, hoVA+phys.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			return layout.PTE(pte).Frame()
		},
		aim: func(t *testing.T, m *core.Machine, victim *kernel.Process, f int) {
			if err := m.HW.Mem.WriteU64(ptePhysAddr(t, m, victim, hoVA+phys.PageSize),
				uint64(layout.MakePresentPTE(f, true))); err != nil {
				t.Fatal(err)
			}
		},
		got: func(t *testing.T, m *core.Machine, np *kernel.Process) []byte {
			got := make([]byte, phys.PageSize)
			if err := m.K.ReadVM(np, hoVA+phys.PageSize, got); err != nil {
				t.Fatal(err)
			}
			return got
		},
	},
	{
		name: "shm",
		written: func(t *testing.T, m *core.Machine, np *kernel.Process) int {
			var seg layout.Shm
			var buf []byte
			if err := seg.Read(m.HW.Mem, np.D.Shm, true, &buf); err != nil {
				t.Fatal(err)
			}
			return int(seg.Frames[0])
		},
		aim: func(t *testing.T, m *core.Machine, victim *kernel.Process, f int) {
			reseal(t, m, victim.D.Shm, func(seg *layout.Shm) { seg.Frames[0] = uint64(f) })
		},
		got: func(t *testing.T, m *core.Machine, np *kernel.Process) []byte {
			got := make([]byte, phys.PageSize)
			if err := m.K.ReadVM(np, hoShmVA, got); err != nil {
				t.Fatal(err)
			}
			return got
		},
	},
	{
		name: "terminal",
		written: func(t *testing.T, m *core.Machine, np *kernel.Process) int {
			var term layout.Terminal
			var buf []byte
			if err := term.Read(m.HW.Mem, np.D.Terminal, true, &buf); err != nil {
				t.Fatal(err)
			}
			return phys.FrameOf(term.Screen)
		},
		aim: func(t *testing.T, m *core.Machine, victim *kernel.Process, f int) {
			reseal(t, m, victim.D.Terminal, func(term *layout.Terminal) { term.Screen = phys.FrameAddr(f) })
		},
		got: func(t *testing.T, m *core.Machine, np *kernel.Process) []byte {
			rows, err := m.K.ScreenContents(np)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Join(rows, nil)
		},
	},
}

// TestScanBarrier aims the second candidate's dead page-table entry, shm
// frame list or terminal screen at the frame the first candidate's commit
// writes for the same thing, with marker bytes in that frame. The frame is
// free in the dead kernel, so the crash kernel's allocator manages it and
// the scan must keep its bytes: every pass, batch or streamed, eager or
// lazy, finishes every scan before the first commit, so the second
// candidate must come back with the dead frame's marker, not the first
// commit's bytes, and the report must not depend on the pool width.
func TestScanBarrier(t *testing.T) {
	marker := bytes.Repeat([]byte("dead"), phys.PageSize/4)
	for _, tc := range []struct {
		name         string
		stream, lazy bool
	}{
		{"batch-eager", false, false},
		{"batch-lazy", false, true},
		{"stream-eager", true, false},
		{"stream-lazy", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range barrierTargets {
				t.Run(target.name, func(t *testing.T) {
					// A clean pass names the frame the first commit writes.
					m, _ := hoMachine(t, 1, tc.stream, tc.lazy, "")
					first := hoRecover(t, m).Procs[0]
					frame := target.written(t, m, m.K.Lookup(first.NewPID))

					run := func(workers int) *resurrect.Report {
						m, procs := hoMachine(t, workers, tc.stream, tc.lazy, "")
						victim := procs[0]
						if victim.PID == first.Candidate.PID {
							victim = procs[1]
						}
						if err := m.HW.Mem.WriteAt(phys.FrameAddr(frame), marker); err != nil {
							t.Fatal(err)
						}
						target.aim(t, m, victim, frame)
						rep := hoRecover(t, m)
						second := rep.Procs[1]
						if second.Candidate.PID != victim.PID {
							t.Fatalf("workers=%d: second candidate pid %d, want %d", workers, second.Candidate.PID, victim.PID)
						}
						got := target.got(t, m, m.K.Lookup(second.NewPID))
						if !bytes.Equal(got, marker[:len(got)]) {
							t.Errorf("workers=%d: second candidate's %s reads %q..., want the dead frame's %q...",
								workers, target.name, got[:8], marker[:8])
						}
						return rep
					}
					if fp1, fp8 := run(1).Fingerprint(), run(8).Fingerprint(); fp1 != fp8 {
						t.Fatalf("fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", fp1, fp8)
					}
				})
			}
		})
	}
}

// TestScanStagesLazyPass is the hazard that keeps a lazy pass's scan
// staging every frame. The first candidate speculates its page's dead frame
// f and its crash procedure touches the page: the resolution copies f out
// and frees it, and the second candidate's commit allocates it again. The
// second candidate's dead PTE also names f, so its speculation is refused
// and it installs eagerly; it must still get f's dead bytes.
func TestScanStagesLazyPass(t *testing.T) {
	var dead []byte
	frame := -1
	run := func(workers int) *resurrect.Report {
		m, procs := hoMachine(t, workers, false, true, "ho-touch")
		// The process list is newest first, so ho-b commits first.
		a, b := procs[1], procs[0]
		pte, err := m.HW.Mem.ReadU64(ptePhysAddr(t, m, a, hoVA))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.HW.Mem.WriteU64(ptePhysAddr(t, m, b, hoVA), pte); err != nil {
			t.Fatal(err)
		}
		frame = layout.PTE(pte).Frame()
		dead = deadBytes(t, m, frame, phys.PageSize)
		rep := hoRecover(t, m)
		first, second := rep.Procs[0], rep.Procs[1]
		if first.Candidate.PID != a.PID || first.PagesSpeculated == 0 || !first.CrashProcCalled {
			t.Fatalf("workers=%d: first pid %d speculated %d pages, crash procedure called %v; want pid %d speculating",
				workers, first.Candidate.PID, first.PagesSpeculated, first.CrashProcCalled, a.PID)
		}
		if !strings.Contains(second.SpecFallback, "already speculated by an earlier candidate") {
			t.Fatalf("workers=%d: second SpecFallback = %q, want the earlier speculation", workers, second.SpecFallback)
		}
		if bytes.Equal(deadBytes(t, m, frame, phys.PageSize), dead) {
			t.Fatalf("workers=%d: frame %d still holds its dead bytes: nothing reused it", workers, frame)
		}
		got := make([]byte, phys.PageSize)
		if err := m.K.ReadVM(m.K.Lookup(second.NewPID), hoVA, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, dead) {
			t.Errorf("workers=%d: second candidate's page differs from dead frame %d's bytes", workers, frame)
		}
		return rep
	}
	if fp1, fp8 := run(1).Fingerprint(), run(8).Fingerprint(); fp1 != fp8 {
		t.Fatalf("fingerprint differs between Workers=1 and Workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", fp1, fp8)
	}
}

// TestScanSharedUnmanagedFrame points both candidates' dead PTEs for one
// page at the same dead user frame, which the crash kernel does not manage:
// neither scan stages it, and both commits copy it from dead memory, the
// second as a dedup hit. Both processes must come back with its bytes.
func TestScanSharedUnmanagedFrame(t *testing.T) {
	for _, stream := range []bool{false, true} {
		run := func(workers int) *resurrect.Report {
			m, procs := hoMachine(t, workers, stream, false, "")
			a, b := procs[0], procs[1]
			pte, err := m.HW.Mem.ReadU64(ptePhysAddr(t, m, a, hoVA))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.HW.Mem.WriteU64(ptePhysAddr(t, m, b, hoVA), pte); err != nil {
				t.Fatal(err)
			}
			frame := layout.PTE(pte).Frame()
			dead := deadBytes(t, m, frame, phys.PageSize)
			rep := hoRecover(t, m)
			if d := rep.Procs[1].PagesDeduped; d == 0 {
				t.Fatalf("stream=%v workers=%d: second candidate deduplicated no page", stream, workers)
			}
			got := make([]byte, phys.PageSize)
			for _, pr := range rep.Procs {
				if err := m.K.ReadVM(m.K.Lookup(pr.NewPID), hoVA, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, dead) {
					t.Errorf("stream=%v workers=%d: pid %d's page differs from dead frame %d's bytes",
						stream, workers, pr.Candidate.PID, frame)
				}
			}
			return rep
		}
		if fp1, fp8 := run(1).Fingerprint(), run(8).Fingerprint(); fp1 != fp8 {
			t.Fatalf("stream=%v: fingerprint differs between Workers=1 and Workers=8", stream)
		}
	}
}

// TestScanGeneratedFrames points both candidates' dead PTEs for their
// first page at a live process's kernel-stack frame, whose context sector
// is stored and whose other sectors the stack pattern generates, and for
// their second page at a kernel-text frame the text pattern generates
// whole, as a corrupted page table can. The scan workers compute those
// frames' bytes through their views at the same time, batch and streamed,
// at widths 1 and 8: both candidates must come back with the bytes a
// ReadAt of each frame returns, or fail alike, and the report must not
// depend on the width.
func TestScanGeneratedFrames(t *testing.T) {
	for _, stream := range []bool{false, true} {
		run := func(workers int) *resurrect.Report {
			m, procs := hoMachine(t, workers, stream, false, "")
			frames := []int{phys.FrameOf(procs[0].D.KStack), phys.FrameOf(m.K.Text.Base())}
			var before [][]byte
			for i, f := range frames {
				before = append(before, deadBytes(t, m, f, phys.PageSize))
				for _, p := range procs {
					if err := m.HW.Mem.WriteU64(ptePhysAddr(t, m, p, hoVA+uint64(i)*phys.PageSize),
						uint64(layout.MakePresentPTE(f, true))); err != nil {
						t.Fatal(err)
					}
				}
			}
			out, err := m.HandleFailure()
			if err != nil || out.Result != core.ResultRecovered || len(out.Report.Procs) != 2 {
				t.Fatalf("stream=%v workers=%d: HandleFailure: %v", stream, workers, err)
			}
			rep := out.Report
			// The transfer saves the running thread's context on its
			// stack, so the stack's bytes are read after the recovery,
			// which leaves both frames alone: every other byte still
			// reads as it did before the crash.
			var dead [][]byte
			for i, f := range frames {
				dead = append(dead, deadBytes(t, m, f, phys.PageSize))
				if !bytes.Equal(dead[i][phys.SectorSize:], before[i][phys.SectorSize:]) {
					t.Fatalf("stream=%v workers=%d: dead frame %d changed past its first sector", stream, workers, f)
				}
			}
			if a, b := rep.Procs[0], rep.Procs[1]; a.Outcome != b.Outcome || fmt.Sprint(a.Err) != fmt.Sprint(b.Err) {
				t.Fatalf("stream=%v workers=%d: candidates differ: %v (%v) and %v (%v)",
					stream, workers, a.Outcome, a.Err, b.Outcome, b.Err)
			}
			for _, pr := range rep.Procs {
				if pr.Outcome != resurrect.OutcomeContinued {
					continue
				}
				got := make([]byte, phys.PageSize)
				for i := range frames {
					if err := m.K.ReadVM(m.K.Lookup(pr.NewPID), hoVA+uint64(i)*phys.PageSize, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, dead[i]) {
						t.Errorf("stream=%v workers=%d: pid %d's page %d differs from dead frame %d's bytes",
							stream, workers, pr.Candidate.PID, i, frames[i])
					}
				}
			}
			return rep
		}
		if fp1, fp8 := run(1).Fingerprint(), run(8).Fingerprint(); fp1 != fp8 {
			t.Fatalf("stream=%v: fingerprint differs between Workers=1 and Workers=8", stream)
		}
	}
}

// TestShmSizePastFrames reseals both candidates' shared-memory records,
// CRC-valid, with a size one page past their frame lists, as a wild write
// can leave them. Each segment must install two pages, its frame's bytes
// and a zero tail, eager and lazy.
func TestShmSizePastFrames(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		m, procs := hoMachine(t, 1, false, lazy, "")
		for _, p := range procs {
			reseal(t, m, p.D.Shm, func(seg *layout.Shm) {
				seg.Size = uint64(len(seg.Frames)+1) * phys.PageSize
			})
		}
		for _, pr := range hoRecover(t, m).Procs {
			got := make([]byte, 2*phys.PageSize)
			if err := m.K.ReadVM(m.K.Lookup(pr.NewPID), hoShmVA, got); err != nil {
				t.Fatal(err)
			}
			want := append(hoBytes(pr.Candidate.PID+1), make([]byte, phys.PageSize)...)
			if !bytes.Equal(got, want) {
				t.Errorf("lazy=%v: pid %d's segment is not its frame's bytes and a zero page",
					lazy, pr.Candidate.PID)
			}
		}
	}
}

// TestConcurrentRecoveries runs whole machines' recoveries in parallel,
// each with its own multi-worker resurrection pool — pool-inside-pool, as a
// campaign with ResurrectWorkers set produces. Machines are built serially
// (the helper uses t.Fatal); only the recovery runs concurrently.
func TestConcurrentRecoveries(t *testing.T) {
	machines := make([]*core.Machine, 4)
	for i := range machines {
		machines[i] = raceMachine(t, 5, 4)
	}
	done := make(chan error, len(machines))
	for _, m := range machines {
		go func(m *core.Machine) {
			if err := m.K.InjectOops("race"); err == nil {
				done <- fmt.Errorf("InjectOops returned nil")
				return
			}
			out, err := m.HandleFailure()
			if err != nil {
				done <- err
				return
			}
			if out.Result != core.ResultRecovered {
				done <- fmt.Errorf("transfer failed: %s", out.Transfer.Reason)
				return
			}
			done <- nil
		}(m)
	}
	for range machines {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
