//go:build race

package core

// raceEnabled reports whether the race detector is compiled in: it changes
// what the host allocates, so the allocation bounds differ under it.
const raceEnabled = true
