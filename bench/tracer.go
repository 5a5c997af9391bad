package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans nest: a span's parent is the
// span that was open when it began.
type span struct {
	name       string
	start, end time.Duration // host time since the tracer's epoch
	parent     int           // index into tracer.spans, -1 at the top
	cycle      int
}

// tracer times calls from outside the program. Every measured call goes
// through tracer.do, traced or not, so a traced run differs from an
// untraced one only by the spans it keeps. Spans stay in memory until the
// run ends. A tracer is used from one goroutine.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
	cycle int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// do runs f and returns its host duration; when tracing, it also records a
// span named name ("layer.operation").
func (t *tracer) do(name string, f func()) time.Duration {
	if !t.on {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, cycle: t.cycle, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	f()
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].end - t.spans[id].start
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time: every span's duration minus the
// time its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[layerOf(s.name)] += self[i]
	}
	return out
}

// writeSelfTable prints the per-layer self-time table, largest first.
func (t *tracer) writeSelfTable(w io.Writer, workload string) {
	self := t.selfTimes()
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "# %s per-layer self time (traced run)\n", workload)
	fmt.Fprintf(w, "# %-12s %12s %7s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "# %-12s %12.3f %6.2f%%\n", l, ms(self[l]), share)
	}
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTraceFile writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing): one complete event per span, times in
// microseconds, the layer as category, and the span's index, its parent's
// index (-1 at the top) and its cycle as arguments.
func (t *tracer) writeTraceFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "cycle": s.cycle},
		}
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	}); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
