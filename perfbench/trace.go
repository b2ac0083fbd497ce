package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side
// of the boundary. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// childTotalsMS returns, for each span named parentName, the total
// duration of its children by name, in milliseconds.
func childTotalsMS(spans []span, parentName string) []map[string]float64 {
	idx := make(map[int64]int)
	var out []map[string]float64
	for _, s := range spans {
		if s.Name == parentName {
			idx[s.ID] = len(out)
			out = append(out, map[string]float64{})
		}
	}
	for _, s := range spans {
		if i, ok := idx[s.Parent]; ok {
			out[i][s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// writeSpans writes the run's metadata and spans as JSON.
func writeSpans(path string, meta map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{"meta": meta, "spans": spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
