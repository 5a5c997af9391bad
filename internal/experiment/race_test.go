package experiment

import (
	"sync"
	"testing"
)

// TestParallelExperimentsRaceFree runs experiments concurrently, as the
// campaign does; with -race this validates the shared registries. Each
// experiment also runs its resurrection pipeline with a multi-worker pool,
// so the detector sees campaign-level and scan-level concurrency nested.
func TestParallelExperimentsRaceFree(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cfg := DefaultConfig("vi", seed)
			cfg.Machine.Resurrection.Workers = 4
			_ = Run(cfg)
		}(int64(1000 + i))
	}
	wg.Wait()
}

// TestResurrectWorkersDoNotChangeResults replays one experiment at pool
// widths 1 and 8: the outcome, the acknowledged operations and the modeled
// interruption must be identical — the campaign-determinism contract the
// ResurrectWorkers knob advertises.
func TestResurrectWorkersDoNotChangeResults(t *testing.T) {
	run := func(workers int) Result {
		cfg := DefaultConfig("vi", 1003) // a seed whose run recovers
		cfg.Machine.Resurrection.Workers = workers
		return Run(cfg)
	}
	r1, r8 := run(1), run(8)
	if r1.Outcome != OutcomeSuccess {
		t.Fatalf("seed no longer recovers (outcome %v); pick another so the comparison stays meaningful", r1.Outcome)
	}
	if r1.Interruption <= 0 {
		t.Fatal("recovered run reported zero interruption")
	}
	if r1.Outcome != r8.Outcome || r1.AckedOps != r8.AckedOps {
		t.Fatalf("outcome drifted: w1=%v/%d w8=%v/%d", r1.Outcome, r1.AckedOps, r8.Outcome, r8.AckedOps)
	}
	if r1.Interruption != r8.Interruption {
		t.Fatalf("interruption drifted: %v vs %v", r1.Interruption, r8.Interruption)
	}
}
