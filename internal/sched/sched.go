// Package sched provides the deterministic SLO-tier vocabulary and the
// schedule models behind streaming resurrection: candidates carry tiers
// (tier-0 critical service → tier-2 batch), resurrection admits them by
// tier and then PID, and a pipelined-commit schedule model evaluates the
// resulting install timeline at any worker width as a pure function — so
// the scan pool's width never perturbs a single observable.
//
// Everything here is deliberately free of wall-clock time, maps iterated
// for ordering, and other nondeterminism sources: the modeled schedule must
// be bit-identical at any pool width and on any host (the owvet
// nodeterminism analyzer enforces this package).
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
