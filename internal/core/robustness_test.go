package core

import (
	"fmt"
	"strings"
	"testing"

	"otherworld/internal/kernel"
	"otherworld/internal/layout"
	"otherworld/internal/resurrect"
)

// TestCyclicProcessListTerminates: a wild write that makes a descriptor's
// Next point back at itself must not hang the crash kernel or clone the
// process. The walk stops at the first descriptor it revisits, so each of
// the two processes is resurrected exactly once.
func TestCyclicProcessListTerminates(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("c1", "counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("c2", "counter"); err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	// The list runs newest first, so c1's descriptor is the tail. Rewrite
	// it so Next forms a self-cycle. The record is re-sealed with a valid
	// CRC: this models logically-wrong-but-intact state (a stale pointer
	// store), the nastier corruption class.
	d := p.D
	d.Next = p.Addr
	if err := m.HW.Mem.WriteAt(p.Addr, d.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("machine should recover: %s", out.Transfer.Reason)
	}
	continued := map[uint32]int{}
	for _, pr := range out.Report.Procs {
		if pr.Outcome == resurrect.OutcomeContinued {
			continued[pr.Candidate.PID]++
		}
	}
	if len(out.Report.Procs) != 2 || len(continued) != 2 {
		t.Fatalf("%d candidates, %d distinct PIDs continued; want 2 and 2", len(out.Report.Procs), len(continued))
	}
	for pid, n := range continued {
		if n != 1 {
			t.Fatalf("PID %d resurrected %d times", pid, n)
		}
	}
}

// TestCyclicFileListTerminates: same property for the fd table.
func TestCyclicFileListTerminates(t *testing.T) {
	m := newTestMachine(t, nil)
	p, err := m.Start("c", "counter")
	if err != nil {
		t.Fatal(err)
	}
	env := &kernel.Env{K: m.K, P: p}
	_ = m.FS.WriteFile("/f", []byte("x"))
	if _, err := env.Open("/f", layout.FlagRead); err != nil {
		t.Fatal(err)
	}
	var rec layout.FileRec
	var buf []byte
	if err := rec.Read(m.HW.Mem, p.D.Files, true, &buf); err != nil {
		t.Fatal(err)
	}
	rec.Next = p.D.Files // self-cycle
	if err := m.HW.Mem.WriteAt(p.D.Files, rec.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil {
		t.Fatalf("HandleFailure: %v", err)
	}
	if out.Result != ResultRecovered {
		t.Fatalf("machine should recover: %s", out.Transfer.Reason)
	}
	// The cyclic fd table is detected; this process fails or degrades but
	// nothing hangs.
	pr := out.Report.Procs[0]
	if pr.Err == nil && pr.Missing == 0 {
		t.Fatal("cyclic fd table should have been noticed")
	}
}

// TestSingleCPUMachine: the halt-NMI protocol degenerates cleanly with one
// processor.
func TestSingleCPUMachine(t *testing.T) {
	m := newTestMachine(t, func(o *Options) { o.HW.NumCPUs = 1 })
	_, err := m.Start("c", "counter")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	_ = m.K.InjectOops("x")
	out, err := m.HandleFailure()
	if err != nil || out.Result != ResultRecovered {
		t.Fatalf("recover: %v %v", out, err)
	}
	if out.Report.Procs[0].Err != nil {
		t.Fatalf("resurrection: %v", out.Report.Procs[0].Err)
	}
}

// chainRecord is a record type the crash kernel walks as a chain.
type chainRecord[T any] interface {
	*T
	Read(m layout.Reader, addr uint64, verifyCRC bool, buf *[]byte) error
	AppendRecord(dst []byte) []byte
}

// loopChain re-seals the last record of the chain at head, with a valid
// CRC, so that its Next (next) points back at head: logically wrong but
// intact state, which only the walk itself can catch.
func loopChain[T any, P chainRecord[T]](t *testing.T, m *Machine, head uint64, next func(*T) *uint64) {
	t.Helper()
	var rec T
	var buf []byte
	cur := head
	for {
		if err := P(&rec).Read(m.HW.Mem, cur, true, &buf); err != nil {
			t.Fatal(err)
		}
		if *next(&rec) == 0 {
			break
		}
		cur = *next(&rec)
	}
	*next(&rec) = head
	if err := m.HW.Mem.WriteAt(cur, P(&rec).AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestChainLoopsReadOnce: every chain the crash kernel walks stops at the
// first record it revisits. Each subtest gives one process a chain of two
// records, loops the tail back to the head (loopChain) and compares the
// pass with the same machine's without the loop: the chain's records are
// read once (its accounting category reads exactly the clean bytes),
// nothing is installed twice (the new kernel's heap holds no more record
// bytes than the clean one's), the crash kernel reads at most twice the
// clean run's kernel data, and the candidate reports the loop.
func TestChainLoopsReadOnce(t *testing.T) {
	rw := layout.FlagRead | layout.FlagWrite | layout.FlagCreate
	for _, c := range []struct {
		name  string
		cat   string
		setup func(env *kernel.Env) error
		loop  func(t *testing.T, m *Machine, p *kernel.Process)
	}{
		{"fd-list", resurrect.CatFile,
			func(env *kernel.Env) error {
				for _, path := range []string{"/a", "/b"} {
					fd, err := env.Open(path, rw)
					if err != nil {
						return err
					}
					if _, err := env.WriteFile(fd, []byte("dirty")); err != nil {
						return err
					}
				}
				return nil
			},
			func(t *testing.T, m *Machine, p *kernel.Process) {
				loopChain(t, m, p.D.Files, func(r *layout.FileRec) *uint64 { return &r.Next })
			}},
		{"page-cache", resurrect.CatCache,
			func(env *kernel.Env) error {
				fd, err := env.Open("/a", rw)
				if err != nil {
					return err
				}
				_, err = env.WriteFile(fd, make([]byte, 2*4096))
				return err
			},
			func(t *testing.T, m *Machine, p *kernel.Process) {
				var f layout.FileRec
				var buf []byte
				if err := f.Read(m.HW.Mem, p.D.Files, true, &buf); err != nil {
					t.Fatal(err)
				}
				loopChain(t, m, f.CachePages, func(r *layout.CachePage) *uint64 { return &r.Next })
			}},
		{"regions", resurrect.CatRegion,
			func(env *kernel.Env) error {
				return env.MapAnon(0x80000, 4096, layout.ProtRead|layout.ProtWrite)
			},
			func(t *testing.T, m *Machine, p *kernel.Process) {
				loopChain(t, m, p.D.MemRegions, func(r *layout.MemRegion) *uint64 { return &r.Next })
			}},
		{"shm", resurrect.CatShm,
			func(env *kernel.Env) error {
				if err := env.ShmGet(1, 4096, 0x600000); err != nil {
					return err
				}
				return env.ShmGet(2, 4096, 0x700000)
			},
			func(t *testing.T, m *Machine, p *kernel.Process) {
				loopChain(t, m, p.D.Shm, func(r *layout.Shm) *uint64 { return &r.Next })
			}},
		{"pipes", resurrect.CatIPC,
			func(env *kernel.Env) error {
				if err := env.PipeOpen(1, 0); err != nil {
					return err
				}
				return env.PipeOpen(2, 0)
			},
			func(t *testing.T, m *Machine, p *kernel.Process) {
				loopChain(t, m, p.D.Pipes, func(r *layout.Pipe) *uint64 { return &r.Next })
			}},
		{"sockets", resurrect.CatIPC,
			func(env *kernel.Env) error {
				if err := env.SockOpen(1, layout.ProtoUDP, 5001); err != nil {
					return err
				}
				return env.SockOpen(2, layout.ProtoUDP, 5002)
			},
			func(t *testing.T, m *Machine, p *kernel.Process) {
				loopChain(t, m, p.D.Sockets, func(r *layout.Socket) *uint64 { return &r.Next })
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(loop bool) (*resurrect.Report, int64) {
				m := newTestMachine(t, func(o *Options) { o.ResurrectIPC = true })
				p, err := m.Start("c", "counter")
				if err != nil {
					t.Fatal(err)
				}
				if err := c.setup(&kernel.Env{K: m.K, P: p}); err != nil {
					t.Fatal(err)
				}
				if loop {
					c.loop(t, m, p)
				}
				_ = m.K.InjectOops("x")
				out, err := m.HandleFailure()
				if err != nil || out.Result != ResultRecovered {
					t.Fatalf("recover: %v %v", out, err)
				}
				return out.Report, m.K.Heap.AllocatedBytes
			}
			clean, cleanHeap := run(false)
			looped, loopedHeap := run(true)
			if got, want := looped.Acct.ByCategory[c.cat], clean.Acct.ByCategory[c.cat]; got != want {
				t.Errorf("%s bytes read = %d, want the clean run's %d: a record was read twice", c.cat, got, want)
			}
			if loopedHeap > cleanHeap {
				t.Errorf("new kernel's heap holds %d record bytes, the clean one's %d: a record was installed twice", loopedHeap, cleanHeap)
			}
			if got, clean := looped.Acct.KernelDataBytes(), clean.Acct.KernelDataBytes(); got > 2*clean {
				t.Errorf("crash kernel read %d bytes of kernel data, more than twice the clean run's %d", got, clean)
			}
			if len(looped.Procs) != 1 {
				t.Fatalf("%d candidates, want 1", len(looped.Procs))
			}
			pr := looped.Procs[0]
			if pr.DirtyFlushed > clean.Procs[0].DirtyFlushed {
				t.Errorf("flushed %d dirty pages, the clean run %d", pr.DirtyFlushed, clean.Procs[0].DirtyFlushed)
			}
			reported := fmt.Sprint(pr.Err)
			for _, st := range pr.Timeline {
				reported += "\n" + st.Err
			}
			if !strings.Contains(reported, layout.LoopReason) {
				t.Errorf("the loop is not reported: %s", reported)
			}
		})
	}
}
