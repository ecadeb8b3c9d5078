package main

import (
	"sort"
	"time"
)

// tracer keeps the spans of a traced replay in memory: per layer
// boundary, how many calls crossed it, how many items they carried and
// their summed wall time. The benchmark records spans around its own
// calls into each layer; nothing inside the program is instrumented. A
// nil tracer records nothing, so the untraced replay runs the same code
// without the clock reads.
type tracer struct {
	spans map[string]*span
}

type span struct {
	calls int
	items int
	d     time.Duration
}

func newTracer() *tracer { return &tracer{spans: make(map[string]*span)} }

// start returns the time a span begins, or the zero time when t is nil.
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span of name that began at t0 and carried items items.
func (t *tracer) end(name string, t0 time.Time, items int) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	s := t.spans[name]
	if s == nil {
		s = &span{}
		t.spans[name] = s
	}
	s.calls++
	s.items += items
	s.d += d
}

// total is the summed time of every span. Spans never nest in a
// replay, so this is the time the replay spent inside the layers.
func (t *tracer) total() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		d += s.d
	}
	return d
}

// ms is the summed time of name in milliseconds (0 when never crossed).
func (t *tracer) ms(name string) float64 {
	if s := t.spans[name]; s != nil {
		return float64(s.d) / float64(time.Millisecond)
	}
	return 0
}

// usPer is the summed time of name in microseconds per n.
func (t *tracer) usPer(name string, n int) float64 {
	if n == 0 {
		return 0
	}
	return t.ms(name) * 1000 / float64(n)
}

// items is the item count carried across name.
func (t *tracer) items(name string) int {
	if s := t.spans[name]; s != nil {
		return s.items
	}
	return 0
}

// calls is the number of crossings of name.
func (t *tracer) calls(name string) int {
	if s := t.spans[name]; s != nil {
		return s.calls
	}
	return 0
}

// table lists every span for the report, by name.
func (t *tracer) table() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(t.spans))
	names := make([]string, 0, len(t.spans))
	for n := range t.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := t.spans[n]
		out[n] = map[string]float64{"calls": float64(s.calls), "items": float64(s.items), "ms": t.ms(n)}
	}
	return out
}

// totalOrZero is total for a tracer, 0 for nil.
func (t *tracer) totalOrZero() time.Duration {
	if t == nil {
		return 0
	}
	return t.total()
}
