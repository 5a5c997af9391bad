package core

import "testing"

// flushedMachine is a machine that has crashed and recovered once, so its
// registry holds the resurrection pass's labelled histograms beside the
// collectors' counters, with the metrics segment flushed.
func flushedMachine(tb testing.TB) *Machine {
	tb.Helper()
	opts := DefaultOptions()
	opts.Seed = 42
	m, err := NewMachine(opts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Start("counter", "counter"); err != nil {
		tb.Fatal(err)
	}
	m.Run(100)
	if err := m.K.InjectOops("flush test"); err == nil {
		tb.Fatal("InjectOops returned nil")
	}
	if out, err := m.HandleFailure(); err != nil || out.Result != ResultRecovered {
		tb.Fatalf("HandleFailure: %v, %+v", err, out)
	}
	if res := m.Run(100); res.Panic != nil {
		tb.Fatal(res.Panic)
	}
	return m
}

// TestFlushMetricsAllocations: flushing a warmed machine's metrics
// allocates nothing. The collectors find their series and the segment
// writer encodes them in what the registry keeps, and the disk bus keeps
// its device names sorted, so a flush builds no snapshot, label map,
// bucket slice or name list.
func TestFlushMetricsAllocations(t *testing.T) {
	m := flushedMachine(t)
	if n := testing.AllocsPerRun(20, m.FlushMetrics); n != 0 {
		t.Fatalf("FlushMetrics of %d series allocates %v times, want 0",
			len(m.Metrics().Snapshot().Points), n)
	}
}

// BenchmarkFlushMetrics times one metrics flush of a warmed machine, the
// flush every healthy Run ends with.
func BenchmarkFlushMetrics(b *testing.B) {
	m := flushedMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FlushMetrics()
	}
}
