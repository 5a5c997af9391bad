package resurrect

import (
	"runtime"
	"testing"
)

// TestScanPoolWidth pins how Config.Workers sizes the scan pool Engine.Run
// starts: the configured number of goroutines, never more than there are
// candidates, and NumCPU (capped the same way) when unset.
func TestScanPoolWidth(t *testing.T) {
	cases := []struct{ workers, candidates, want int }{
		{1, 8, 1},
		{3, 8, 3},
		{8, 2, 2},
		{0, 8, min(runtime.NumCPU(), 8)},
		{0, 1, 1},
		{-1, 8, min(runtime.NumCPU(), 8)},
	}
	for _, c := range cases {
		if got := (Config{Workers: c.workers}).effectiveWorkers(c.candidates); got != c.want {
			t.Errorf("Workers %d over %d candidates: %d scan goroutines, want %d",
				c.workers, c.candidates, got, c.want)
		}
	}
}
