package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail percentile resting on fewer samples is noise.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count), as Python's statistics.median does. ok is false for no
// samples.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// quartiles returns the first and third quartile of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads printed here match the ones the acceptance rule computes.
// ok is false for fewer than two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}

// percentile returns the nearest-rank p-th percentile of xs. It reports ok
// only when at least minBeyond samples lie beyond it: at 100 samples p90 is
// the highest percentile that qualifies, at 99 none does.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}
