package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, the fix or batch it
// served, the enclosing span (a pass or a ladder rung; -1 for none), and
// its start and end in nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil tracer records nothing, so untraced runs pay one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// root is the span that encloses new spans (see open).
	root int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

// begin opens a span under the current root and returns its handle.
func (t *tracer) begin(name string, id uint64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: t.root})
	i := int32(len(t.spans) - 1)
	// Stamp the start after the append, so a growing span buffer is
	// not charged to the span.
	t.spans[i].Start = time.Since(t.epoch).Nanoseconds()
	t.mu.Unlock()
	return i
}

// end closes a span opened by begin.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// open begins a span that becomes the parent of every span begun until
// shut closes it.
func (t *tracer) open(name string, id uint64) int32 {
	i := t.begin(name, id)
	if i >= 0 {
		t.mu.Lock()
		t.root = i
		t.mu.Unlock()
	}
	return i
}

// shut ends a span begun by open and restores its parent as the root.
func (t *tracer) shut(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.end(i)
	t.mu.Lock()
	t.root = t.spans[i].Parent
	t.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			//lint:ignore errdrop the encode error is the one to report
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		//lint:ignore errdrop the flush error is the one to report
		_ = f.Close()
		return err
	}
	return f.Close()
}
