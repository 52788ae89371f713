package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A cold request whose deadline expires before the sweep finishes gets 504
// semantics (ErrDeadline), but the computation keeps running and fills the
// cache for the next caller — a timed-out request warms the key.
func TestDeadlineColdRequest(t *testing.T) {
	s := testService()
	defer s.Close()
	ctx := context.Background()

	_, meta, err := s.ComputeCl(ctx, ClRequest{DeadlineMS: 1})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("1ms deadline on a cold sweep: err = %v (meta %+v)", err, meta)
	}
	// The sweep continues in the background; wait for it to land.
	deadline := time.Now().Add(30 * time.Second)
	for s.Sweeps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sweep never completed after the timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// deadline_ms is an execution knob, not physics: the same request without
	// it shares the key and is now a cache hit.
	_, meta, err = s.ComputeCl(ctx, ClRequest{})
	if err != nil || meta.Source != SourceCache {
		t.Fatalf("request after timed-out warm-up: source %s err %v", meta.Source, err)
	}
	st := s.Stats()
	if st.Timeouts != 1 {
		t.Fatalf("timeouts counter %d, want 1", st.Timeouts)
	}
	if st.Sweeps != 1 {
		t.Fatalf("sweeps %d, want 1 (the timed-out computation must not rerun)", st.Sweeps)
	}
}

// A key the LRU has evicted is a plain miss again: a deadline that expires
// before its recompute is a 504, and the recompute lands the bytes of the
// first sweep. A key's product never goes out of date; it is only evicted.
func TestDeadlineEvictedKey(t *testing.T) {
	s := New(Options{Defaults: testDefaults(), Workers: 1, CacheSize: 1, ModelCacheSize: 2, MaxConcurrent: 1, MaxQueue: 32})
	defer s.Close()
	ctx := context.Background()

	if _, _, err := s.ComputeCl(ctx, ClRequest{}); err != nil {
		t.Fatal(err)
	}
	want := productBody(t, s, ClRequest{})
	// A second key through the one-entry cache evicts the first.
	if _, _, err := s.ComputeCl(ctx, ClRequest{LMaxCl: 30}); err != nil {
		t.Fatal(err)
	}
	release := holdSlot(t, s)
	_, meta, err := s.ComputeCl(ctx, ClRequest{DeadlineMS: 1})
	release()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("1 ms deadline on an evicted key behind a held slot: source %s, err %v", meta.Source, err)
	}
	waitFor(t, "the background recompute", func() bool { return s.Sweeps() == 3 })
	if got := productBody(t, s, ClRequest{}); !bytes.Equal(got, want) {
		t.Fatal("the recompute of an evicted key differs from its first sweep")
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts %d, want 1", st.Timeouts)
	}
}

func TestDeadlineValidation(t *testing.T) {
	s := testService()
	defer s.Close()
	if err := (ClRequest{DeadlineMS: -1}).Validate(); err == nil {
		t.Fatal("negative cl deadline_ms accepted")
	}
	if err := (PkRequest{DeadlineMS: -1}).Validate(); err == nil {
		t.Fatal("negative pk deadline_ms accepted")
	}
	if _, _, err := s.ComputeCl(context.Background(), ClRequest{DeadlineMS: -5}); err == nil {
		t.Fatal("service accepted a negative deadline")
	}
	if s.Sweeps() != 0 {
		t.Fatal("invalid deadline ran a sweep")
	}
	// deadline_ms never enters the cache key: two spellings, one key.
	d := testDefaults()
	with := ClRequest{DeadlineMS: 250}
	if with.Key(d) != (ClRequest{}).Key(d) {
		t.Fatal("deadline_ms leaked into the cache key")
	}
	if (PkRequest{DeadlineMS: 250}).Key(d) != (PkRequest{}).Key(d) {
		t.Fatal("pk deadline_ms leaked into the cache key")
	}
}

// The HTTP layer: an expired deadline is 504 with
// Retry-After (the sweep is filling the cache); a negative deadline is 400;
// the fault counters surface in /v1/stats.
func TestHTTPDeadline(t *testing.T) {
	s := testService()
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	resp, _ := postJSON(t, client, srv.URL+"/v1/cl", `{"deadline_ms": 1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("cold deadline: status %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 without Retry-After")
	}
	resp, _ = postJSON(t, client, srv.URL+"/v1/cl", `{"deadline_ms": -1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: status %d, want 400", resp.StatusCode)
	}

	// The timed-out sweep still completes and warms the cache: the same
	// physics with a deadline now answers 200 from cache within it.
	deadline := time.Now().Add(30 * time.Second)
	for s.Sweeps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sweep never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, env := postJSON(t, client, srv.URL+"/v1/cl", `{"deadline_ms": 1000}`)
	if resp.StatusCode != http.StatusOK || env.Source != SourceCache {
		t.Fatalf("warmed request: status %d source %s", resp.StatusCode, env.Source)
	}

	sresp, err := client.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Timeouts != 1 {
		t.Fatalf("stats timeouts %d, want 1", st.Timeouts)
	}
}
