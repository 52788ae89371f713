package main

import (
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one op share
// its id; Parent is the index of the span that caused this one (-1 at the
// root). Times are nanoseconds since the recorder was made.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder is the benchmark's own tracer: it wraps calls into each layer's
// public functions from outside, keeps every span in memory, and is only
// ever switched on for the traced pass. A nil recorder records nothing, so
// the timed pass runs the same code with tracing off.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanRef identifies an open span; the zero value (from a nil recorder)
// is inert and has no parent to offer.
type spanRef struct {
	rec *recorder
	idx int
}

// noSpan is the parent of root spans.
var noSpan = spanRef{idx: -1}

// start opens a span under parent for the given op.
func (r *recorder) start(name string, op int, parent spanRef) spanRef {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent.idx, StartNS: now})
	ref := spanRef{rec: r, idx: len(r.spans) - 1}
	r.mu.Unlock()
	return ref
}

// end closes the span and returns its duration in milliseconds (0 when
// tracing is off).
func (s spanRef) end() float64 {
	if s.rec == nil {
		return 0
	}
	now := time.Since(s.rec.t0).Nanoseconds()
	s.rec.mu.Lock()
	sp := &s.rec.spans[s.idx]
	sp.EndNS = now
	d := float64(sp.EndNS-sp.StartNS) / 1e6
	s.rec.mu.Unlock()
	return d
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice), in nanoseconds.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.EndNS - s.StartNS) - covered
	}
	return self
}
