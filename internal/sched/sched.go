// Package sched provides the deterministic SLO-priority admission
// scheduler behind streaming resurrection: candidates carry tiers (tier-0
// critical service → tier-2 batch), a priority queue with aging decides
// the admission order that feeds the scan pool, and a pipelined-commit
// schedule model evaluates the resulting install timeline at any worker
// width as a pure function — so the scan pool's width never perturbs a
// single observable.
//
// Everything here is deliberately free of wall-clock time, maps iterated
// for ordering, and other nondeterminism sources: admission order and the
// modeled schedule must be bit-identical at any pool width and on any
// host (the owvet nodeterminism analyzer enforces this package).
package sched

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Admission tiers, most critical first.
const (
	// TierCritical is tier-0: critical services (the paper's "most
	// critical applications ... resurrected first", Section 5).
	TierCritical = 0
	// TierStandard is tier-1: ordinary interactive services.
	TierStandard = 1
	// TierBatch is tier-2: batch work that tolerates deferral.
	TierBatch = 2
	// NumTiers is the number of admission tiers.
	NumTiers = 3
)

// DefaultAging is the default aging interval: after this many pops, a
// waiting item's effective tier improves by one level, which bounds how
// long sustained high-tier arrivals can starve a batch item.
const DefaultAging = 8

// ClampTier forces a tier into the valid [0, NumTiers-1] range.
func ClampTier(t int) int {
	if t < 0 {
		return 0
	}
	if t >= NumTiers {
		return NumTiers - 1
	}
	return t
}

// ParseTierSpec parses a CLI tier map: comma-separated "program=tier"
// pairs, e.g. "mysqld=0,apache-php=1,sh=2". Tiers are clamped to the valid
// range; an empty spec returns an empty (non-nil) map.
func ParseTierSpec(spec string) (map[string]int, error) {
	out := make(map[string]int)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		prog, tier, ok := strings.Cut(part, "=")
		prog = strings.TrimSpace(prog)
		if !ok || prog == "" {
			return nil, fmt.Errorf("sched: bad tier spec %q (want program=tier)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(tier))
		if err != nil {
			return nil, fmt.Errorf("sched: bad tier in %q: %v", part, err)
		}
		out[prog] = ClampTier(n)
	}
	return out, nil
}

// Item is one admission candidate.
type Item struct {
	// Tier is the SLO tier (0 most critical).
	Tier int
	// Key breaks ties within an effective tier deterministically —
	// resurrection uses the dead kernel's PID, so equal-tier candidates
	// admit in creation order.
	Key uint32
	// Seq is an opaque caller payload (the candidate's slot in the
	// caller's array); the queue never inspects it.
	Seq int
}

type queued struct {
	it      Item
	arrival int // push counter, the anti-starvation tie-break
}

// Queue is a deterministic priority queue with aging. Pop returns the
// item with the lowest effective tier, where an item's effective tier
// drops by one for every aging-interval pops it has waited; ties break on
// earliest arrival, then Key. The aging term is what makes the queue
// starvation-free: under a sustained stream of tier-0 arrivals, a tier-2
// item's effective tier reaches 0 after at most NumTiers*aging pops and
// its earlier arrival then beats every fresher tier-0 item.
type Queue struct {
	aging    int
	pops     int
	arrivals int
	items    []queued
}

// NewQueue builds a queue with the given aging interval (<=0 selects
// DefaultAging).
func NewQueue(aging int) *Queue {
	if aging <= 0 {
		aging = DefaultAging
	}
	return &Queue{aging: aging}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Push enqueues an item.
func (q *Queue) Push(it Item) {
	it.Tier = ClampTier(it.Tier)
	q.items = append(q.items, queued{it: it, arrival: q.arrivals})
	q.arrivals++
}

// effective returns the aged tier of a queued item at the current pop
// count.
func (q *Queue) effective(e queued) int {
	waited := q.pops - e.arrival
	if waited < 0 {
		waited = 0
	}
	eff := e.it.Tier - waited/q.aging
	if eff < 0 {
		eff = 0
	}
	return eff
}

// Pop removes and returns the next admitted item. The linear scan is
// deliberate: admission sets are small, and a scan with a total ordering
// is trivially deterministic.
func (q *Queue) Pop() (Item, bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	best := 0
	for i := 1; i < len(q.items); i++ {
		a, b := q.items[i], q.items[best]
		ea, eb := q.effective(a), q.effective(b)
		if ea != eb {
			if ea < eb {
				best = i
			}
			continue
		}
		if a.arrival != b.arrival {
			if a.arrival < b.arrival {
				best = i
			}
			continue
		}
		if a.it.Key < b.it.Key {
			best = i
		}
	}
	it := q.items[best].it
	q.items = append(q.items[:best], q.items[best+1:]...)
	q.pops++
	return it, true
}

// Slot is one candidate's position in a modeled schedule: its scan on a
// worker, then its commit on the same worker — behind the commit cursor
// when the schedule has one.
type Slot struct {
	Worker      int
	ScanStart   time.Duration
	ScanEnd     time.Duration
	CommitStart time.Duration
	CommitEnd   time.Duration
}

// Rule is a dispatch rule: which worker a candidate's scan runs on.
type Rule int

const (
	// EarliestFree dispatches each scan to the worker that frees first,
	// ties to the lowest worker index.
	EarliestFree Rule = iota
	// RoundRobin pins candidate i to worker i mod W.
	RoundRobin
)

// Schedule evaluates the schedule for candidates in commit order under the
// given dispatch rule. Candidate i's commit starts once both its own scan
// and candidate i-1's commit have finished — the commit cursor — and the
// worker stays occupied through the commit it performs. An empty commit
// list means no cursor: each worker is free again the moment its scan
// ends. Otherwise commits must be as long as scans. Negative durations
// count as zero. Returns the per-candidate slots and the makespan (latest
// commit end). A pure function of its arguments: every modeled
// resurrection schedule is one call.
func Schedule(rule Rule, scans, commits []time.Duration, workers int) ([]Slot, time.Duration) {
	if workers < 1 {
		workers = 1
	}
	free := make([]time.Duration, workers)
	slots := make([]Slot, len(scans))
	var prevCommitEnd, makespan time.Duration
	for i := range scans {
		w := i % workers
		if rule == EarliestFree {
			w = 0
			for j := 1; j < workers; j++ {
				if free[j] < free[w] {
					w = j
				}
			}
		}
		s := Slot{Worker: w, ScanStart: free[w]}
		s.ScanEnd = s.ScanStart + max(scans[i], 0)
		s.CommitStart, s.CommitEnd = s.ScanEnd, s.ScanEnd
		if len(commits) > 0 {
			s.CommitStart = max(s.ScanEnd, prevCommitEnd)
			s.CommitEnd = s.CommitStart + max(commits[i], 0)
			prevCommitEnd = s.CommitEnd
		}
		free[w] = s.CommitEnd
		slots[i] = s
		makespan = max(makespan, s.CommitEnd)
	}
	return slots, makespan
}

// Pipeline is the EarliestFree schedule: the pipelined-commit model of a
// streamed resurrection pass.
func Pipeline(scans, commits []time.Duration, workers int) ([]Slot, time.Duration) {
	return Schedule(EarliestFree, scans, commits, workers)
}

// Barrier is the batch pass's resume model: the scans run round-robin with
// no cursor, and once the last one ends the commits run one at a time in
// order. Negative durations count as zero; commits must be as long as
// scans.
func Barrier(scans, commits []time.Duration, workers int) []Slot {
	slots, t := Schedule(RoundRobin, scans, nil, workers)
	for i := range slots {
		slots[i].CommitStart = t
		t += max(commits[i], 0)
		slots[i].CommitEnd = t
	}
	return slots
}

// Link is one stretch of a schedule's critical chain: slot Slot's work from
// Start to End, beginning Offset into that slot's own scan-then-commit
// span. A commit that waited on the cursor contributes only itself (Offset
// is then its scan's length); any other slot contributes its scan and
// commit back to back.
type Link struct {
	Slot       int
	Offset     time.Duration
	Start, End time.Duration
}

// Chain returns the critical chain of a schedule in time order: the slots
// whose work bounds the makespan. It walks back from the slot that ends
// last (ties to the lowest worker, then the later slot). A commit that
// waited on the cursor was bound by the previous candidate's commit; any
// other slot was bound by the previous slot on its worker, or by time 0.
// Each link therefore starts exactly where the one before it ends, so the
// links' lengths add up to the chain's end without remainder. Under
// RoundRobin with no commits the chain is the slowest worker's slots.
func Chain(slots []Slot) []Link {
	if len(slots) == 0 {
		return nil
	}
	prevOn := make([]int, len(slots))
	lastOn := make(map[int]int)
	end := 0
	for i, s := range slots {
		prevOn[i] = -1
		if j, ok := lastOn[s.Worker]; ok {
			prevOn[i] = j
		}
		lastOn[s.Worker] = i
		if e := slots[end]; s.CommitEnd > e.CommitEnd || s.CommitEnd == e.CommitEnd && s.Worker <= e.Worker {
			end = i
		}
	}
	var chain []Link
	for i := end; i >= 0; {
		s := slots[i]
		if s.CommitStart != s.ScanEnd {
			chain = append(chain, Link{Slot: i, Offset: s.ScanEnd - s.ScanStart, Start: s.CommitStart, End: s.CommitEnd})
			i--
			continue
		}
		chain = append(chain, Link{Slot: i, Start: s.ScanStart, End: s.CommitEnd})
		i = prevOn[i]
	}
	for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
		chain[a], chain[b] = chain[b], chain[a]
	}
	return chain
}
