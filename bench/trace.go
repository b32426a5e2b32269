package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (tracing inside the program is a later issue). Spans of one
// request share Req; Parent is the span that caused this one, 0 for a
// request's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is the untraced side of the overhead
// measurement. It is safe for concurrent use: the in-process cluster's
// workers record from their own goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	return t.spans[id-1].dur()
}

// layerTotals aggregates spans by name.
type layerTotals struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // durations minus the part child spans cover
}

// totals computes, per span name, count, total time and self time.
func (t *tracer) totals() map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTotals{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of parent's interval its children cover;
// overlapping children (parallel workers) count once.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var sum, upTo int64
	upTo = parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, upTo), min(k.EndNS, parent.EndNS)
		if hi > lo {
			sum += hi - lo
			upTo = hi
		}
	}
	return time.Duration(sum)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
