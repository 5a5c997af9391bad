package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"otherworld/internal/apps"
	"otherworld/internal/disk"
	"otherworld/internal/phys"
)

// bookkeepingSink keeps what a measured run builds on the heap.
var bookkeepingSink any

// leastAllocated prepares and runs an operation three times and returns
// the fewest bytes a run allocated, leaving out what prepare allocates.
func leastAllocated(prepare func() (run func())) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		run := prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestBookkeepingScalesWithUse bounds the host memory a 256 MiB machine's
// boot bookkeeping, crash-kernel grant and morph allocate: each must cost
// in proportion to the frames or blocks in use, not to RAM or disk size.
func TestBookkeepingScalesWithUse(t *testing.T) {
	const frames = 256 << 20 / phys.PageSize
	slot := phys.Region{Start: frames - 2048, Frames: 2048}
	t.Run("allocator boot", func(t *testing.T) {
		mem := phys.NewMem(frames * phys.PageSize)
		got := leastAllocated(func() func() {
			return func() { bookkeepingSink = phys.NewFrameAllocator(mem, phys.Region{Start: 0, Frames: frames}) }
		})
		if got > 20<<10 {
			t.Fatalf("NewFrameAllocator over 256 MiB allocated %d bytes, want at most 20 KiB", got)
		}
	})
	t.Run("crash grant and morph", func(t *testing.T) {
		got := leastAllocated(func() func() {
			// A dead main kernel that used 4000 frames and freed three
			// of them, and a crash kernel booted in its slot.
			mem := phys.NewMem(frames * phys.PageSize)
			dead := phys.NewFrameAllocator(mem, phys.Region{Start: 0, Frames: slot.Start})
			if _, err := dead.AllocN(4000, phys.FrameUser); err != nil {
				t.Fatal(err)
			}
			for _, f := range []int{100, 2000, 3999} {
				dead.Free(f)
			}
			crash := phys.NewFrameAllocator(mem, slot)
			return func() {
				crash.AddFreeFrames(phys.Region{Start: 0, Frames: slot.Start - slot.Frames})
				crash.AdoptUnmanaged(phys.Region{Start: 0, Frames: frames})
			}
		})
		if got > 1<<10 {
			t.Fatalf("the crash grant and the morph allocated %d bytes, want at most 1 KiB", got)
		}
	})
	t.Run("unwritten swap partition", func(t *testing.T) {
		got := leastAllocated(func() func() {
			return func() { bookkeepingSink = disk.NewSwapDevice(newSwapPartition("/dev/swap0")) }
		})
		if got > 1<<10 {
			t.Fatalf("an unwritten 16384-block swap partition allocated %d bytes, want at most 1 KiB", got)
		}
	})
}

// benchMachineOptions is the machine the two-clock benchmark's 8-MySQL
// workloads boot: 256 MiB of memory with 16 MiB crash slots.
func benchMachineOptions() Options {
	opts := DefaultOptions()
	opts.Seed = 1
	return opts
}

// TestNewMachineAllocation bounds what booting that machine allocates: the
// main kernel's boot, the crash image and the planes must come in under
// 320 KiB, half what a flat table of one pointer, one protection flag and
// one kind a frame took alone. A boot costs the chunks its writes store
// in; kernel text is generated from its seed and stores no page.
func TestNewMachineAllocation(t *testing.T) {
	got := leastAllocated(func() func() {
		return func() {
			m, err := NewMachine(benchMachineOptions())
			if err != nil {
				t.Fatal(err)
			}
			bookkeepingSink = m
		}
	})
	if got >= 320<<10 {
		t.Fatalf("NewMachine(256 MiB, 16 MiB slots) allocated %d bytes, want under 320 KiB", got)
	}
	t.Logf("NewMachine(256 MiB, 16 MiB slots) allocated %d bytes", got)
}

// TestCreateProcessAllocation bounds what creating a shell allocates on a
// booted machine: the process, its page tables and terminal, and the one
// sector of its kernel stack that its saved context lands in, the rest of
// the stack being generated. With go1.24.0 it allocates 5,032 B; a kernel
// stack stored as a whole 4 KiB page made it 8,616 B. The race detector
// adds nothing to either figure, so one bound serves both builds.
func TestCreateProcessAllocation(t *testing.T) {
	got := leastAllocated(func() func() {
		m, err := NewMachine(benchMachineOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.K.CreateProcess("sh-0", apps.ProgShell); err != nil {
			t.Fatal(err)
		}
		return func() {
			p, err := m.K.CreateProcess("sh-1", apps.ProgShell)
			if err != nil {
				t.Fatal(err)
			}
			bookkeepingSink = p
		}
	})
	if got >= 6<<10 {
		t.Fatalf("CreateProcess(shell) allocated %d bytes, want under 6 KiB", got)
	}
	t.Logf("CreateProcess(shell) allocated %d bytes", got)
}

// TestHandleFailureAllocation bounds what one eager recovery allocates on
// the host, at resurrection width 1, for two populations crashed and
// resurrected by HandleFailure: four MySQL servers holding rows, an Apache
// server with its shared-memory session store and four shells with their
// terminals; and 32 shells, each with a terminal to restore. Each bound
// lies between what the recovery allocates and what it allocated while
// each resurrected process's kernel stack stored a whole 4 KiB page. With
// go1.24.0: 296,608 B against 351,672 B for the mixed population (319,664
// B against 375,360 B under -race), 400,144 B against 520,248 B for the
// shells (404,272 B against 523,960 B under -race).
func TestHandleFailureAllocation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(m *Machine) error
		procs int
		// bound is the allocation limit; raceBound replaces it under the
		// race detector, which allocates more.
		bound, raceBound uint64
	}{
		{"mixed", startMixed, 9, 320 << 10, 340 << 10},
		{"32 shells", startShells(32), 32, 420 << 10, 420 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := leastAllocated(func() func() {
				opts := benchMachineOptions()
				opts.Resurrection.Workers = 1
				m, err := NewMachine(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.start(m); err != nil {
					t.Fatal(err)
				}
				if res := m.Run(400); res.Panic != nil {
					t.Fatal(res.Panic)
				}
				if err := m.K.InjectOops("allocation"); err == nil {
					t.Fatal("InjectOops returned nil")
				}
				return func() {
					out, err := m.HandleFailure()
					if err != nil || out.Result != ResultRecovered {
						t.Fatalf("HandleFailure: %v", err)
					}
					if n := out.Report.Succeeded(); n != tc.procs {
						t.Fatalf("%d of %d processes resurrected", n, tc.procs)
					}
					bookkeepingSink = out
				}
			})
			bound := tc.bound
			if raceEnabled {
				bound = tc.raceBound
			}
			if got >= bound {
				t.Fatalf("HandleFailure allocated %d bytes, want under %d", got, bound)
			}
			t.Logf("HandleFailure allocated %d bytes", got)
		})
	}
}

// startMixed starts four MySQL servers holding rows, four shells and an
// Apache server.
func startMixed(m *Machine) error {
	for i := 0; i < 4; i++ {
		for _, prog := range []string{apps.ProgMySQL, apps.ProgShell} {
			if _, err := m.Start(fmt.Sprintf("%s-%d", prog, i), prog); err != nil {
				return err
			}
		}
	}
	if _, err := m.Start("apache", apps.ProgApache); err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		m.Net.Deliver(apps.MySQLPort, []byte(fmt.Sprintf("I %d row-%d", i+1, i)))
	}
	return nil
}

// startShells returns a start function for n shells.
func startShells(n int) func(m *Machine) error {
	return func(m *Machine) error {
		for i := 0; i < n; i++ {
			if _, err := m.Start(fmt.Sprintf("sh-%d", i), apps.ProgShell); err != nil {
				return err
			}
		}
		return nil
	}
}

// BenchmarkNewMachine times booting that machine: memory, the main
// kernel, the crash image and the planes, as every bench cycle and
// campaign experiment does.
func BenchmarkNewMachine(b *testing.B) {
	opts := benchMachineOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(opts)
		if err != nil {
			b.Fatal(err)
		}
		bookkeepingSink = m
	}
}
