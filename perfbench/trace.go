package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// live flow share its Flow id; other spans carry Flow -1.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Flow   int64  `json:"flow"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// span records a finished call and returns its id for children to cite.
func (t *tracer) span(name, layer string, parent uint64, flow int64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	return t.spanNs(name, layer, parent, flow, start.Sub(t.base).Nanoseconds(), end.Sub(t.base).Nanoseconds())
}

// spanNs is span with times already taken as nanoseconds since base.
func (t *tracer) spanNs(name, layer string, parent uint64, flow int64, start, end int64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Flow: flow, Name: name, Layer: layer, Start: start, End: end})
	return id
}

// begin opens a span that end closes, for parents whose children are
// recorded before they finish.
func (t *tracer) begin(name, layer string, parent uint64) uint64 {
	return t.spanNs(name, layer, parent, -1, t.since(), 0)
}

func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.since()
}

// since returns nanoseconds from the tracer's base to now.
func (t *tracer) since() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.base).Nanoseconds()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
