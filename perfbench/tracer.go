package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share the parent's id chain.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	t       *tracer `json:"-"`
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under parent (0 for a root).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), t: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.EndNS = now
	s.t.mu.Unlock()
}

// durations returns the lengths of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// medianMS is the median length of the spans named name, in ms.
func (t *tracer) medianMS(name string) float64 {
	return median(seconds(t.durations(name))) * 1e3
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
