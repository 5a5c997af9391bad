package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// minPairs is the fewest alternated parent/change pairs a comparison rests
// on.
const minPairs = 10

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
	noValues   = "n/a"
)

// comparison is one (metric, workload) pair's outcome.
type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	// win is the share of pairs the change won; ties count for neither.
	win     float64
	verdict string
}

// judge applies the comparison rule to paired runs: parent[i] and
// change[i] ran back to back, sides alternating.
//
//   - improved: the change wins at least nine tenths of the pairs and the
//     medians differ, in its favour, by more than the spread between the
//     parent's own runs (the distance between its quartiles);
//   - unresolved: otherwise, when that spread is wider than the bound,
//     unless every change run reads better than every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound's share of it;
//   - unchanged: everything else.
func judge(d metricDef, parent, change []float64) comparison {
	var c comparison
	if len(parent) == 0 || len(change) == 0 {
		c.verdict = noValues
		return c
	}
	better := func(a, b float64) bool { // b better than a
		if d.Better == "higher" {
			return b > a
		}
		return b < a
	}
	c.parentMed, _ = median(parent)
	c.changeMed, _ = median(change)
	c.parentQ1, c.parentQ3, _ = quartiles(parent)
	c.changeQ1, c.changeQ3, _ = quartiles(change)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(parent[i], change[i]) {
			wins++
		}
	}
	c.win = float64(wins) / float64(pairs)
	spread := c.parentQ3 - c.parentQ1

	switch {
	case pairs >= minPairs && c.win >= 0.9 && better(c.parentMed, c.changeMed) &&
		math.Abs(c.changeMed-c.parentMed) > spread:
		c.verdict = improved
	case spread > d.Bound*math.Abs(c.parentMed):
		c.verdict = unresolved
		if allBetter(parent, change, better) {
			c.verdict = unchanged
		}
	case better(c.changeMed, c.parentMed) &&
		math.Abs(c.changeMed-c.parentMed) > d.Bound*math.Abs(c.parentMed):
		c.verdict = regressed
	default:
		c.verdict = unchanged
	}
	return c
}

// allBetter reports whether every change run reads better than every parent
// run.
func allBetter(parent, change []float64, better func(a, b float64) bool) bool {
	for _, p := range parent {
		for _, c := range change {
			if !better(p, c) {
				return false
			}
		}
	}
	return true
}

// runCompare reads parent reports, then "--", then change reports, pairs
// the i-th parent and change report of each workload, and judges every
// end-to-end and report-only metric. It exits 1 on any regression and 2 on
// unusable input.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 0 {
		fmt.Fprintln(stderr, "usage: bench -compare parent.json... -- change.json...")
		return 2
	}
	load := func(paths []string) (map[string][]report, []string, error) {
		by := make(map[string][]report)
		var order []string
		for _, p := range paths {
			r, err := readReport(p)
			if err != nil {
				return nil, nil, err
			}
			if _, seen := by[r.Workload]; !seen {
				order = append(order, r.Workload)
			}
			by[r.Workload] = append(by[r.Workload], r)
		}
		return by, order, nil
	}
	parents, order, err := load(args[:sep])
	if err == nil {
		var changes map[string][]report
		changes, _, err = load(args[sep+1:])
		if err == nil {
			return printComparison(stdout, stderr, order, parents, changes)
		}
	}
	fmt.Fprintln(stderr, err)
	return 2
}

func printComparison(stdout, stderr io.Writer, order []string, parents, changes map[string][]report) int {
	code := 0
	fmt.Fprintf(stdout, "%-16s %-20s %-34s %-34s %5s %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "win", "verdict")
	for _, w := range order {
		ps, cs := parents[w], changes[w]
		if len(ps) != len(cs) || len(ps) < minPairs {
			fmt.Fprintf(stderr, "%s: %d parent and %d change runs; need %d alternated pairs\n",
				w, len(ps), len(cs), minPairs)
			return 2
		}
		for _, d := range catalog {
			if d.scope == perLayer {
				continue
			}
			pv, cv, oneSided := pairedValues(ps, cs, d.Name)
			c := judge(d, pv, cv)
			if oneSided {
				// Known on one side only: the metric appeared or vanished.
				c = comparison{verdict: unresolved}
			}
			if c.verdict == regressed {
				code = 1
			}
			if len(pv) == 0 || oneSided {
				fmt.Fprintf(stdout, "%-16s %-20s %-34s %-34s %5s %s\n", w, d.Name, "-", "-", "-", c.verdict)
				continue
			}
			fmt.Fprintf(stdout, "%-16s %-20s %-34s %-34s %4.0f%% %s\n", w, d.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.parentMed, c.parentQ1, c.parentQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.changeMed, c.changeQ1, c.changeQ3),
				100*c.win, c.verdict)
		}
	}
	return code
}

// pairedValues returns a metric's known values in pairs where both runs of
// the pair know it; oneSided is true when some run knows it and its partner
// does not.
func pairedValues(parents, changes []report, name string) (pv, cv []float64, oneSided bool) {
	for i := range parents {
		p, c := parents[i].Metrics[name].Value, changes[i].Metrics[name].Value
		switch {
		case p != nil && c != nil:
			pv = append(pv, *p)
			cv = append(cv, *c)
		case p != nil || c != nil:
			oneSided = true
		}
	}
	return pv, cv, oneSided
}
