package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary: a public qtpnet call the
// workload makes, or a layer replay. Spans of one operation (a transfer,
// a lifecycle, a message connection) share Op; Parent names the span
// that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; a nil *tracer is the
// untraced run and every method is a no-op on it.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id and start; end records it.
func (t *tracer) begin() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.ids.Add(1), int64(time.Since(t.epoch))
}

func (t *tracer) end(id, parent, op uint64, name string, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span whose bounds the caller measured itself.
func (t *tracer) record(parent, op uint64, name string, start, end int64) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// spanStats sums the durations and counts the spans with a given name.
func (t *tracer) spanStats(name string) (count int, total time.Duration) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			count++
			total += time.Duration(s.End - s.Start)
		}
	}
	return count, total
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
