package main

import (
	"sync"
	"time"

	"repro/bench/result"
)

// tracer keeps the spans of a traced run in memory: one per call the
// benchmark makes into a layer of the program, linked to the span that
// caused it. A nil tracer (untraced runs) records nothing.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []result.Span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{start: time.Now()}
}

// open starts a span and returns its id (0 on a nil tracer, which is
// also "no parent").
func (t *tracer) open(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.start).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, result.Span{ID: id, Parent: parent, Name: name, Start: now, End: now, Req: req})
	return id
}

// close ends span id, tagging it with the job it concerns, if any.
func (t *tracer) close(id int, job string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.start).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if job != "" {
		t.spans[id-1].Job = job
	}
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

func (t *tracer) all() []result.Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]result.Span(nil), t.spans...)
}
