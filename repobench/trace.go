package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps spans in memory: one per call the benchmark makes into a
// layer, named "<layer>.<call>", linked to the span that caused it. The
// spans are written out once, when the run ends. A nil *tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []spanRecord
}

type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// span is an open span. The zero span belongs to no tracer: its children
// are roots of a nil tracer, so every method on it does nothing.
type span struct {
	t  *tracer
	id int
	t0 time.Time
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// root opens a span with no parent.
func (t *tracer) root(name, detail string) span { return t.open(0, name, detail) }

func (t *tracer) open(parent int, name, detail string) span {
	if t == nil {
		return span{}
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRecord{
		ID: id, Parent: parent, Name: name, Detail: detail,
		StartUS: float64(now.Sub(t.start).Nanoseconds()) / 1e3,
	})
	t.mu.Unlock()
	return span{t: t, id: id, t0: now}
}

// child opens a span caused by s.
func (s span) child(name, detail string) span { return s.t.open(s.id, name, detail) }

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	d := time.Since(s.t0)
	s.t.mu.Lock()
	s.t.spans[s.id-1].DurUS = float64(d.Nanoseconds()) / 1e3
	s.t.mu.Unlock()
}

// write stores the spans as JSON lines, in the order they were opened.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
