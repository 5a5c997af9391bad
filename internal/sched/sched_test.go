package sched

import (
	"testing"
	"time"
)

func TestParseTierSpec(t *testing.T) {
	got, err := ParseTierSpec("mysqld=0, apache-php=1 ,sh=9")
	if err != nil {
		t.Fatalf("ParseTierSpec: %v", err)
	}
	want := map[string]int{"mysqld": 0, "apache-php": 1, "sh": NumTiers - 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("got[%q] = %d, want %d (full: %v)", k, got[k], v, got)
		}
	}
	empty, err := ParseTierSpec("")
	if err != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("empty spec: got %v, %v; want empty non-nil map", empty, err)
	}
	for _, bad := range []string{"mysqld", "=2", "sh=two"} {
		if _, err := ParseTierSpec(bad); err == nil {
			t.Fatalf("ParseTierSpec(%q) accepted, want error", bad)
		}
	}
}

func TestPipelineSerialEquivalence(t *testing.T) {
	scans := []time.Duration{3, 1, 2}
	commits := []time.Duration{2, 2, 2}
	slots, makespan := Pipeline(scans, commits, 1)
	// One worker: strict serial scan+commit chain.
	var want time.Duration
	for i := range scans {
		want += scans[i] + commits[i]
	}
	if makespan != want {
		t.Fatalf("1-worker makespan = %v, want serial sum %v", makespan, want)
	}
	for i := 1; i < len(slots); i++ {
		if slots[i].ScanStart < slots[i-1].CommitEnd {
			t.Fatalf("slot %d overlaps predecessor on one worker", i)
		}
	}
}

func TestPipelineCommitOrderInvariant(t *testing.T) {
	scans := []time.Duration{5, 1, 1, 1}
	commits := []time.Duration{1, 1, 1, 1}
	for workers := 1; workers <= 4; workers++ {
		slots, makespan := Pipeline(scans, commits, workers)
		for i := 1; i < len(slots); i++ {
			if slots[i].CommitStart < slots[i-1].CommitEnd {
				t.Fatalf("w=%d: commit %d starts %v before predecessor ends %v",
					workers, i, slots[i].CommitStart, slots[i-1].CommitEnd)
			}
			if slots[i].CommitStart < slots[i].ScanEnd {
				t.Fatalf("w=%d: commit %d starts before its scan ends", workers, i)
			}
		}
		if last := slots[len(slots)-1].CommitEnd; makespan != last {
			t.Fatalf("w=%d: makespan %v != last commit end %v", workers, makespan, last)
		}
	}
}

func TestPipelineWidthMonotone(t *testing.T) {
	scans := []time.Duration{4, 4, 4, 4, 4, 4, 4, 4}
	commits := []time.Duration{1, 1, 1, 1, 1, 1, 1, 1}
	_, m1 := Pipeline(scans, commits, 1)
	_, m4 := Pipeline(scans, commits, 4)
	_, m8 := Pipeline(scans, commits, 8)
	if !(m8 <= m4 && m4 <= m1) {
		t.Fatalf("makespan not monotone in width: 1w=%v 4w=%v 8w=%v", m1, m4, m8)
	}
	if m4 >= m1 {
		t.Fatalf("no pipelining win at 4 workers: %v vs %v", m4, m1)
	}
}

func TestPipelineEmpty(t *testing.T) {
	slots, makespan := Pipeline(nil, nil, 4)
	if len(slots) != 0 || makespan != 0 {
		t.Fatalf("empty pipeline: slots=%d makespan=%v", len(slots), makespan)
	}
}

func TestClampTier(t *testing.T) {
	cases := [][2]int{{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {100, 2}}
	for _, c := range cases {
		if got := ClampTier(c[0]); got != c[1] {
			t.Fatalf("ClampTier(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestPipelineListSchedule pins the schedule with no commit cursor under
// the earliest-free rule: each span goes to the least-loaded worker.
func TestPipelineListSchedule(t *testing.T) {
	s := func(secs ...int) []time.Duration {
		out := make([]time.Duration, len(secs))
		for i, v := range secs {
			out[i] = time.Duration(v) * time.Second
		}
		return out
	}
	cases := []struct {
		name    string
		spans   []time.Duration
		workers int
		want    time.Duration
	}{
		{"empty", nil, 4, 0},
		{"serial-sums", s(3, 2, 2, 1), 1, 8 * time.Second},
		// Greedy least-loaded: w0=3, w1=2, then 2 goes to w1 (2<3), then
		// 1 goes to w0 — both workers finish at 4s. A commit cursor would
		// hold w1 until w0's commit at 3s and finish at 5s.
		{"two-workers-packed", s(3, 2, 2, 1), 2, 4 * time.Second},
		// More workers than spans: one span per worker.
		{"workers-clamped", s(3, 2), 8, 3 * time.Second},
		{"zero-workers-serial", s(1, 1), 0, 2 * time.Second},
		// Ties go to the lowest worker index: 2,2 land on w0,w1; the next
		// 2 returns to w0.
		{"tie-lowest-index", s(2, 2, 2), 2, 4 * time.Second},
		// A straggler dominates regardless of width.
		{"straggler-bound", s(10, 1, 1, 1), 4, 10 * time.Second},
	}
	for _, c := range cases {
		if _, got := Pipeline(c.spans, nil, c.workers); got != c.want {
			t.Errorf("%s: Pipeline(%v, nil, %d) makespan = %v, want %v",
				c.name, c.spans, c.workers, got, c.want)
		}
		// Any empty commit list means no cursor, nil or not.
		if _, got := Pipeline(c.spans, []time.Duration{}, c.workers); got != c.want {
			t.Errorf("%s: empty commit list makespan = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestScheduleRoundRobin pins the batch pass's dispatch rule: candidate i
// on worker i mod W whatever the workers' loads, where EarliestFree would
// rebalance.
func TestScheduleRoundRobin(t *testing.T) {
	scans := []time.Duration{5, 1, 1, 1}
	slots, makespan := Schedule(RoundRobin, scans, nil, 2)
	for i, s := range slots {
		if s.Worker != i%2 {
			t.Fatalf("slot %d on worker %d, want %d", i, s.Worker, i%2)
		}
	}
	if makespan != 6 {
		t.Fatalf("makespan %v, want 6", makespan)
	}
	// Earliest-free puts all three short scans on the idle worker.
	if _, m := Pipeline(scans, nil, 2); m != 5 {
		t.Fatalf("earliest-free makespan %v, want 5", m)
	}
}

// TestBarrier pins the batch resume model: no commit starts before the
// round-robin scan makespan, and commits then run back to back in order.
func TestBarrier(t *testing.T) {
	slots := Barrier([]time.Duration{5, 1, 1, 1}, []time.Duration{2, -1, 3, 1}, 2)
	want := [][2]time.Duration{{6, 8}, {8, 8}, {8, 11}, {11, 12}}
	for i, s := range slots {
		if s.Worker != i%2 || s.CommitStart != want[i][0] || s.CommitEnd != want[i][1] {
			t.Fatalf("slot %d = %+v, want worker %d commit %v-%v", i, s, i%2, want[i][0], want[i][1])
		}
	}
	if got := Barrier(nil, nil, 4); len(got) != 0 {
		t.Fatalf("empty barrier: %d slots", len(got))
	}
}

// TestChain pins the critical chain: its links abut from 0 to the
// makespan, a cursor-bound commit links back to the previous commit, and
// any other slot to the previous slot on its worker.
func TestChain(t *testing.T) {
	type link struct {
		slot               int
		offset, start, end time.Duration
	}
	cases := []struct {
		name           string
		rule           Rule
		scans, commits []time.Duration
		workers        int
		want           []link
	}{
		{"round-robin-slowest-worker", RoundRobin, []time.Duration{3, 1, 2, 5}, nil, 2,
			[]link{{1, 0, 0, 1}, {3, 0, 1, 6}}},
		{"round-robin-tie-lowest-worker", RoundRobin, []time.Duration{2, 2}, nil, 2,
			[]link{{0, 0, 0, 2}}},
		{"through-the-cursor", EarliestFree, []time.Duration{1, 1, 1}, []time.Duration{5, 5, 5}, 3,
			[]link{{0, 0, 0, 6}, {1, 1, 6, 11}, {2, 1, 11, 16}}},
		{"scan-bound", EarliestFree, []time.Duration{1, 10}, []time.Duration{1, 1}, 2,
			[]link{{1, 0, 0, 11}}},
		{"empty", EarliestFree, nil, nil, 4, nil},
	}
	for _, c := range cases {
		slots, makespan := Schedule(c.rule, c.scans, c.commits, c.workers)
		chain := Chain(slots)
		var got []link
		var at time.Duration
		for _, l := range chain {
			got = append(got, link{l.Slot, l.Offset, l.Start, l.End})
			if l.Start != at {
				t.Errorf("%s: link %+v starts at %v, previous ended at %v", c.name, l, l.Start, at)
			}
			at = l.End
		}
		if at != makespan {
			t.Errorf("%s: chain ends at %v, makespan %v", c.name, at, makespan)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s: chain %v, want %v", c.name, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: chain %v, want %v", c.name, got, c.want)
			}
		}
	}
}
