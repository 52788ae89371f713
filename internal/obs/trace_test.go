package obs

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("cl")
	if tr.ID() == "" {
		t.Fatal("empty trace id")
	}
	sp := tr.Start("evolve")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	tr.Start("project").End()
	tr.Finish()

	snap := tr.Snapshot()
	if snap.Label != "cl" || snap.ID != tr.ID() {
		t.Fatalf("snapshot identity: %+v", snap)
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(snap.Spans))
	}
	if snap.Spans[0].Name != "evolve" || snap.Spans[0].DurMS < 1 {
		t.Fatalf("evolve span: %+v", snap.Spans[0])
	}
	if snap.TotalMS < snap.Spans[0].DurMS {
		t.Fatalf("total %.3f < evolve %.3f", snap.TotalMS, snap.Spans[0].DurMS)
	}
	if ms := tr.SpanMS("evolve"); ms != snap.Spans[0].DurMS {
		t.Fatalf("SpanMS = %g, want %g", ms, snap.Spans[0].DurMS)
	}
	// Snapshot must be a copy: later spans don't retroactively appear.
	tr.Start("late").End()
	if len(snap.Spans) != 2 {
		t.Fatal("snapshot aliases live span slice")
	}
}

func TestTraceNilNoop(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace has an id")
	}
	tr.Start("x").End() // must not panic
	tr.Finish()
	if s := tr.Snapshot(); s.ID != "" || len(s.Spans) != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
	if tr.SpanMS("x") != 0 {
		t.Fatal("nil SpanMS != 0")
	}
	// The acceptance budget: the no-op sink allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		sp := tr.Start("evolve")
		sp.End()
	}); n > 0 {
		t.Fatalf("nil trace span allocates %.0f per op, want 0", n)
	}
}

func TestContextThreading(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context yielded a trace")
	}
	tr := NewTrace("pk")
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace lost in context round-trip")
	}
	// nil trace attaches nothing.
	if ctx2 := ContextWithTrace(context.Background(), nil); TraceFrom(ctx2) != nil {
		t.Fatal("nil trace produced a context value")
	}
}

func TestTraceLogRing(t *testing.T) {
	l := NewTraceLog(3)
	if l.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	l.Add(nil) // ignored
	if l.Len() != 0 {
		t.Fatal("nil trace counted")
	}
	var ids []string
	for i := 0; i < 5; i++ {
		tr := NewTrace("cl")
		tr.Finish()
		l.Add(tr)
		ids = append(ids, tr.ID())
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3 (capacity)", l.Len())
	}
	// Newest first; the two oldest were evicted.
	got := l.Last(10)
	if len(got) != 3 {
		t.Fatalf("Last(10) = %d traces", len(got))
	}
	want := []string{ids[4], ids[3], ids[2]}
	for i, w := range want {
		if got[i].ID != w {
			t.Fatalf("Last order: got[%d]=%s, want %s", i, got[i].ID, w)
		}
	}
	if got := l.Last(1); len(got) != 1 || got[0].ID != ids[4] {
		t.Fatalf("Last(1): %+v", got)
	}
	// Any n is clamped to the fill before allocating: no makeslice panic.
	if got := l.Last(math.MaxInt); len(got) != 3 {
		t.Fatalf("Last(MaxInt) = %d traces, want 3", len(got))
	}
	if got := l.Last(-1); len(got) != 0 {
		t.Fatalf("Last(-1) = %d traces, want 0", len(got))
	}
}

func TestConcurrentSpans(t *testing.T) {
	// The Bessel prewarm records its span from a goroutine concurrent with
	// the sweep's spans; all must land.
	tr := NewTrace("cl")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				tr.Start("worker").End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	tr.Finish()
	if n := len(tr.Snapshot().Spans); n != 800 {
		t.Fatalf("spans = %d, want 800", n)
	}
}
