package kernel

import (
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"otherworld/internal/phys"
)

// referenceCheckExecute is CheckExecute as a byte-by-byte loop over fn's
// text: it recomputes every byte's pristine value with expected and decides
// corrupted bytes into decided. TestCheckExecuteMatchesReference holds the
// real method to it.
func referenceCheckExecute(t *Text, decided map[uint64]Misbehavior, fn FuncID, rollFn func() float64) Misbehavior {
	f := t.funcs[fn]
	buf := make([]byte, f.Len)
	if err := t.mem.ReadAt(t.base+uint64(f.Start), buf); err != nil {
		return BehaveFailStop
	}
	for i, b := range buf {
		addr := t.base + uint64(f.Start) + uint64(i)
		if b == t.expected(addr) {
			delete(decided, addr) // repaired or rolled back
			continue
		}
		behave, ok := decided[addr]
		if !ok {
			behave = t.decideBehavior(rollFn())
			decided[addr] = behave
		}
		if behave != BehaveBenign {
			return behave
		}
	}
	return BehaveBenign
}

// newTestText lays a Text out over a memory just large enough for it.
func newTestText(tb testing.TB, seed int64) *Text {
	tb.Helper()
	mem := phys.NewMem((3 + TextFrames) * phys.PageSize)
	region := phys.Region{Start: 0, Frames: mem.NumFrames()}
	text, err := NewText(mem, phys.NewFrameAllocator(mem, region), region, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return text
}

// countingRoll returns a seeded roll stream and its draw counter.
func countingRoll(seed int64) (func() float64, *int) {
	rng := rand.New(rand.NewSource(seed))
	draws := new(int)
	return func() float64 {
		*draws++
		return rng.Float64()
	}, draws
}

// aimedOffset picks a text offset inside f: its first or last byte, a byte
// at or next to one of its first 64-byte boundaries, or any byte of it.
func aimedOffset(rng *rand.Rand, f TextFunc) int {
	switch rng.Intn(4) {
	case 0:
		return f.Start
	case 1:
		return f.Start + f.Len - 1
	case 2:
		off := 64*(1+rng.Intn(4)) + rng.Intn(3) - 1
		return f.Start + min(off, f.Len-1)
	}
	return f.Start + rng.Intn(f.Len)
}

// TestCheckExecuteMatchesReference drives seeded sequences of corruption,
// repair, Settle and execution over every kernel function and requires
// CheckExecute to agree with the byte loop after each execution: the same
// misbehaviour, the same decided map and the same number of rollFn draws,
// from one counted read of the function. Seeds 5 and 6 start with two
// corrupted bytes in the scheduler: on both sides of a sector boundary,
// and in two sectors of one frame. Each runs the scheduler with both, then
// with one repaired, before the seeded sequence.
func TestCheckExecuteMatchesReference(t *testing.T) {
	steps := 5000
	if testing.Short() {
		steps = 1000
	}
	sched := newTestText(t, 1).Func(FuncSched)
	boundary := (sched.Start/phys.PageSize+1)*phys.PageSize + 2*phys.SectorSize
	oneFrame := (sched.Start/phys.PageSize + 2) * phys.PageSize
	presets := map[int64][]int{
		5: {boundary - 1, boundary},
		6: {oneFrame + 100, oneFrame + 5*phys.SectorSize + 7},
	}
	executed, early := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text := newTestText(t, seed)
		execute := func(step int, fn FuncID) {
			t.Helper()
			f := text.Func(fn)
			ref := maps.Clone(text.decided)
			if ref == nil {
				ref = make(map[uint64]Misbehavior)
			}
			rollSeed := rng.Int63()
			refRoll, refDraws := countingRoll(rollSeed)
			roll, draws := countingRoll(rollSeed)
			want := referenceCheckExecute(text, ref, fn, refRoll)
			before := text.mem.Stats()
			got := text.CheckExecute(fn, roll)
			after := text.mem.Stats()
			if got != want || *draws != *refDraws {
				t.Fatalf("seed %d step %d %s: got %v after %d draws, reference %v after %d",
					seed, step, f.Name, got, *draws, want, *refDraws)
			}
			if !maps.Equal(text.decided, ref) {
				t.Fatalf("seed %d step %d %s: decided %v, reference %v", seed, step, f.Name, text.decided, ref)
			}
			if ops, n := after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes; ops != 1 || n != int64(f.Len) {
				t.Fatalf("seed %d step %d %s: %d reads of %d bytes, want 1 of %d", seed, step, f.Name, ops, n, f.Len)
			}
			executed++
			if got != BehaveBenign {
				early++
			}
		}
		var corrupted []int // offsets written off-pattern and not yet restored
		if preset := presets[seed]; preset != nil {
			for _, off := range preset {
				if _, err := text.CorruptByte(off, byte(1+rng.Intn(255))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				execute(-1, FuncSched)
			}
			addr := text.Base() + uint64(preset[1])
			if err := text.mem.WriteAt(addr, []byte{text.expected(addr)}); err != nil {
				t.Fatal(err)
			}
			execute(-1, FuncSched)
			corrupted = append(corrupted, preset[0])
		}
		for step := 0; step < steps; step++ {
			fn := FuncID(rng.Intn(int(funcCount)))
			f := text.Func(fn)
			switch op := rng.Intn(20); {
			case op < 5:
				off := aimedOffset(rng, f)
				if _, err := text.CorruptByte(off, byte(1+rng.Intn(255))); err != nil {
					t.Fatal(err)
				}
				corrupted = append(corrupted, off)
			case op < 10:
				if len(corrupted) == 0 {
					continue
				}
				j := rng.Intn(len(corrupted))
				addr := text.Base() + uint64(corrupted[j])
				if err := text.mem.WriteAt(addr, []byte{text.expected(addr)}); err != nil {
					t.Fatal(err)
				}
				corrupted[j] = corrupted[len(corrupted)-1]
				corrupted = corrupted[:len(corrupted)-1]
			case op < 12:
				text.Settle(fn, Misbehavior(rng.Intn(int(BehaveDoubleFault)+1)))
			default:
				execute(step, fn)
			}
		}
	}
	// Both kinds of return must be well represented for the comparison to
	// mean anything.
	if early < executed/10 || executed-early < executed/10 {
		t.Fatalf("%d of %d executions returned early; the op mix no longer exercises both paths", early, executed)
	}
}

func TestCheckExecutePristineDoesNotAllocate(t *testing.T) {
	text := newTestText(t, 1)
	roll := func() float64 { return 0 }
	if n := testing.AllocsPerRun(100, func() { text.CheckExecute(FuncSched, roll) }); n != 0 {
		t.Fatalf("pristine CheckExecute(FuncSched) allocates %v times per call", n)
	}
}

// TestNewTextWritesEveryByte requires NewText to write the pattern over
// all of its text frames, each frame generated by the text's pattern, and,
// on fresh memory, to allocate at most 16 KiB: the Text and the frames'
// records, with no page of text stored.
func TestNewTextWritesEveryByte(t *testing.T) {
	const bound = 16 << 10
	mem := phys.NewMem((3 + TextFrames) * phys.PageSize)
	region := phys.Region{Start: 0, Frames: mem.NumFrames()}
	alloc := phys.NewFrameAllocator(mem, region)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	text, err := NewText(mem, alloc, region, 7)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(bound); got > want {
		t.Fatalf("NewText on fresh memory allocated %d bytes, want at most %d", got, want)
	}
	got := make([]byte, text.Size())
	if err := text.mem.ReadAt(text.Base(), got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		addr := text.Base() + uint64(i)
		if want := text.expected(addr); b != want {
			t.Fatalf("text byte %d reads %#x, want %#x", i, b, want)
		}
	}
	for i := 0; i < TextFrames; i++ {
		if f := phys.FrameOf(text.Base()) + i; text.mem.Generated(f, text.pattern) != phys.AllSectors {
			t.Fatalf("text frame %d is not generated by the text's pattern", i)
		}
	}
}

var (
	benchBehave Misbehavior
	benchText   *Text
)

// BenchmarkNewText times laying out a kernel's text, as every boot does:
// claiming the frames and generating the pattern over them. Each run lays
// it out on fresh memory, as a boot does, so the storage the text frames
// take counts with NewText's own bytes.
func BenchmarkNewText(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem := phys.NewMem((3 + TextFrames) * phys.PageSize)
		region := phys.Region{Start: 0, Frames: mem.NumFrames()}
		alloc := phys.NewFrameAllocator(mem, region)
		b.StartTimer()
		text, err := NewText(mem, alloc, region, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		benchText = text
	}
}

// BenchmarkCheckExecute times the scheduler's text check, the one every
// scheduling step pays: on pristine text and with one corrupted byte
// already decided benign.
func BenchmarkCheckExecute(b *testing.B) {
	benign := func() float64 { return 0 }
	run := func(b *testing.B, text *Text) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchBehave = text.CheckExecute(FuncSched, benign)
		}
	}
	b.Run("pristine", func(b *testing.B) { run(b, newTestText(b, 1)) })
	b.Run("benign-byte", func(b *testing.B) {
		text := newTestText(b, 1)
		f := text.Func(FuncSched)
		if _, err := text.CorruptByte(f.Start+f.Len/2, 1); err != nil {
			b.Fatal(err)
		}
		run(b, text)
	})
}
