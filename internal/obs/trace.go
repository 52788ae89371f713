package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named phase of a sweep trace, with its offset from the trace
// start and its duration, both in milliseconds.
type Span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// Trace records the per-phase timing of one request's computation: the
// queue wait, the model acquisition, the evolution sweep, the source
// spline, the projection. A nil *Trace is the no-op sink — every method is
// nil-safe and the Start/End pair on a nil trace performs no allocation and
// reads no clock, so instrumented code paths carry tracing unconditionally.
//
// Spans may be recorded concurrently (the Bessel prewarm runs alongside the
// sweep); they appear in completion order.
type Trace struct {
	id    string
	label string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	totalMS float64
}

var traceSeq atomic.Uint64

// NewTrace starts a trace. label names the request kind (e.g. "cl").
func NewTrace(label string) *Trace {
	return &Trace{
		id:    fmt.Sprintf("sw-%06d", traceSeq.Add(1)),
		label: label,
		start: time.Now(),
		spans: make([]Span, 0, 16),
	}
}

// ID returns the trace identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SpanTimer is an in-flight span handle; call End exactly once.
type SpanTimer struct {
	t    *Trace
	name string
	t0   time.Time
}

// Start opens a span. On a nil trace it returns the zero handle without
// touching the clock.
func (t *Trace) Start(name string) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	return SpanTimer{t: t, name: name, t0: time.Now()}
}

// End closes the span and appends it to the trace (no-op for the zero
// handle).
func (s SpanTimer) End() {
	if s.t == nil {
		return
	}
	now := time.Now()
	sp := Span{
		Name:    s.name,
		StartMS: float64(s.t0.Sub(s.t.start).Nanoseconds()) / 1e6,
		DurMS:   float64(now.Sub(s.t0).Nanoseconds()) / 1e6,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// Finish stamps the trace's total wall time. Idempotent; later spans may
// still be appended (the concurrent prewarm can outlive the request).
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	total := float64(time.Since(t.start).Nanoseconds()) / 1e6
	t.mu.Lock()
	t.totalMS = total
	t.mu.Unlock()
}

// TraceSnapshot is the wire form of a trace, served by /v1/trace.
type TraceSnapshot struct {
	ID      string    `json:"id"`
	Label   string    `json:"label"`
	Started time.Time `json:"started"`
	TotalMS float64   `json:"total_ms"`
	Spans   []Span    `json:"spans"`
}

// Snapshot copies the trace (nil-safe; a nil trace yields the zero value).
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSnapshot{
		ID:      t.id,
		Label:   t.label,
		Started: t.start,
		TotalMS: t.totalMS,
		Spans:   append([]Span(nil), t.spans...),
	}
}

// SpanMS returns the summed duration of the named span (nil-safe).
func (t *Trace) SpanMS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms float64
	for _, sp := range t.spans {
		if sp.Name == name {
			ms += sp.DurMS
		}
	}
	return ms
}

// TraceLog is a bounded ring buffer of recent traces, newest first on read.
type TraceLog struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
}

// NewTraceLog returns a ring holding the last `capacity` traces (min 1).
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]*Trace, capacity)}
}

// Add appends a finished (or finishing) trace, evicting the oldest.
func (l *TraceLog) Add(t *Trace) {
	if t == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = t
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Len returns the number of traces held.
func (l *TraceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Last returns up to n traces, newest first. n is clamped to the ring's
// fill before anything is allocated, so any n is safe.
func (l *TraceLog) Last(n int) []TraceSnapshot {
	l.mu.Lock()
	n = max(0, min(n, l.n))
	traces := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := (l.next - 1 - i + 2*len(l.buf)) % len(l.buf)
		traces = append(traces, l.buf[idx])
	}
	l.mu.Unlock()
	out := make([]TraceSnapshot, len(traces))
	for i, t := range traces {
		out[i] = t.Snapshot()
	}
	return out
}

// ctxKey carries a *Trace through context, the channel by which the serving
// layer threads a request's trace down through spectra into the dispatch
// backends.
type ctxKey struct{}

// ContextWithTrace attaches t to ctx (returns ctx unchanged for nil t).
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom extracts the trace from ctx, or nil. Alloc-free.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
