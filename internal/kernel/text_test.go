package kernel

import (
	"maps"
	"math/rand"
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
// from one counted read of the function.
func TestCheckExecuteMatchesReference(t *testing.T) {
	steps := 5000
	if testing.Short() {
		steps = 1000
	}
	executed, early := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text := newTestText(t, seed)
		var corrupted []int // offsets written off-pattern and not yet restored
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
				ref := maps.Clone(text.decided)
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
// all of its text frames while keeping a pristine copy of only the bytes
// its functions span.
func TestNewTextWritesEveryByte(t *testing.T) {
	text := newTestText(t, 7)
	last := text.Func(funcCount - 1)
	if span := last.Start + last.Len; len(text.pristine) != span {
		t.Fatalf("pristine copy is %d bytes, want the functions' %d", len(text.pristine), span)
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
		if i < len(text.pristine) && text.pristine[i] != b {
			t.Fatalf("pristine byte %d is %#x, memory holds %#x", i, text.pristine[i], b)
		}
	}
}

var (
	benchBehave Misbehavior
	benchText   *Text
)

// BenchmarkNewText times laying out a kernel's text, as every boot does:
// claiming the frames, writing the pattern and keeping the pristine copy.
// The frames already have storage, so only NewText's own bytes count.
func BenchmarkNewText(b *testing.B) {
	mem := phys.NewMem((3 + TextFrames) * phys.PageSize)
	region := phys.Region{Start: 0, Frames: mem.NumFrames()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
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
