package spans

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// perfetto.go renders a span tree in the Chrome trace-event JSON format
// (the "traceEvents" array), which Perfetto's UI loads directly. The JSON
// is built by hand in tree order — no maps, no encoder reordering — so the
// bytes are identical for identical trees at any worker width. Timestamps
// are microseconds with fixed three-digit nanosecond fractions; pre-failure
// instants carry negative timestamps, which Perfetto accepts.

// WriteTraceEvents writes the Perfetto-loadable JSON for the tree.
func (t *Tree) WriteTraceEvents(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}

	// Process and thread name metadata: one process per experiment, thread
	// 0 for the machine track, one thread per candidate.
	emit(fmt.Sprintf("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":%s}}",
		jsonString(fmt.Sprintf("otherworld %s seed=%d", t.App, t.Seed))))
	emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"machine\"}}")
	var walkNames func(s *Span)
	walkNames = func(s *Span) {
		if s.Cat == CatCandidate {
			emit(fmt.Sprintf("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}",
				s.TID, jsonString(s.Name)))
		}
		for _, c := range s.Children {
			walkNames(c)
		}
	}
	if t.Root != nil {
		walkNames(t.Root)
	}

	var walk func(s *Span)
	walk = func(s *Span) {
		if s.Dur > 0 {
			line := fmt.Sprintf("{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d",
				jsonString(s.Name), jsonString(s.Cat), usec(int64(s.Start)), usec(int64(s.Dur)), s.TID)
			if s.Note != "" {
				line += fmt.Sprintf(",\"args\":{\"note\":%s}", jsonString(s.Note))
			}
			emit(line + "}")
		} else {
			line := fmt.Sprintf("{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"g\",\"ts\":%s,\"pid\":1,\"tid\":%d",
				jsonString(s.Name), jsonString(s.Cat), usec(int64(s.Start)), s.TID)
			if s.Note != "" {
				line += fmt.Sprintf(",\"args\":{\"note\":%s}", jsonString(s.Note))
			}
			emit(line + "}")
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// usec renders nanoseconds as microseconds with a fixed three-digit
// fraction ("1234.567", "-0.500") — plain integer math, no floats. The
// magnitude is unsigned so math.MinInt64 renders too.
func usec(ns int64) string {
	sign, mag := "", uint64(ns)
	if ns < 0 {
		sign, mag = "-", -mag
	}
	return fmt.Sprintf("%s%d.%03d", sign, mag/1000, mag%1000)
}

// jsonString renders s as a JSON string literal via encoding/json, which is
// deterministic for strings.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshal of a string cannot fail; keep the exporter total anyway.
		return "\"\""
	}
	return string(b)
}
