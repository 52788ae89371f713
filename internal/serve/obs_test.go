package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plinger/internal/obs"
)

// scrapeMetrics GETs /metrics and parses the exposition text.
func scrapeMetrics(t *testing.T, client *http.Client, base string) []obs.Sample {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return samples
}

// TestMetricsDuringLoad is the CI-reachable scrape check: while concurrent
// requests are in flight, /metrics must stay parseable and must expose the
// cache, latency, sweep, fault-ledger and runtime series.
func TestMetricsDuringLoad(t *testing.T) {
	s := testService()
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	// Concurrent load: one cold key computed once, then hammered for hits,
	// with /metrics scraped in the middle of it.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := client.Post(srv.URL+"/v1/cl", "application/json",
					bytes.NewReader([]byte(`{}`)))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3; j++ {
			scrapeMetrics(t, client, srv.URL)
		}
	}()
	wg.Wait()

	samples := scrapeMetrics(t, client, srv.URL)
	// Counters with known floors after 30 requests on one key.
	req := obs.FindSample(samples, "plinger_serve_requests_total", nil)
	if req == nil || req.Value < 30 {
		t.Fatalf("requests_total = %v, want >= 30", req)
	}
	hits := obs.FindSample(samples, "plinger_serve_cache_hits_total", nil)
	if hits == nil || hits.Value < 1 {
		t.Fatalf("cache_hits_total = %v, want >= 1", hits)
	}
	modes := obs.FindSample(samples, "plinger_sweep_modes_total", nil)
	if modes == nil || modes.Value < 1 {
		t.Fatalf("sweep_modes_total = %v, want >= 1", modes)
	}
	// Presence checks: per-endpoint latency histogram, queue gauge, fault
	// ledger, sweep-phase timing, runtime gauges.
	for _, probe := range []struct {
		name   string
		labels map[string]string
	}{
		{"plinger_serve_request_seconds_count", map[string]string{"endpoint": "cl"}},
		{"plinger_serve_request_seconds_bucket", map[string]string{"endpoint": "cl"}},
		{"plinger_serve_queue_wait_seconds_count", nil},
		{"plinger_serve_queue_computing", nil},
		{"plinger_sweeps_total", nil},
		{"plinger_sweep_seconds_count", nil},
		{"plinger_sweep_mode_seconds_count", nil},
		{"plinger_core_tablebuilds_total", nil},
		{"plinger_fault_worker_failures_total", nil},
		{"plinger_fault_reassignments_total", nil},
		{"plinger_fault_deadline_misses_total", nil},
		{"plinger_go_goroutines", nil},
		{"plinger_go_heap_alloc_bytes", nil},
	} {
		if obs.FindSample(samples, probe.name, probe.labels) == nil {
			t.Errorf("missing series %s%v", probe.name, probe.labels)
		}
	}
	if g := obs.FindSample(samples, "plinger_go_goroutines", nil); g != nil && g.Value < 1 {
		t.Errorf("goroutines gauge = %v", g.Value)
	}
}

// wireTraces is the /v1/trace response body.
type wireTraces struct {
	Traces []obs.TraceSnapshot `json:"traces"`
}

// TestTraceHugeLast: /v1/trace clamps any positive last to the ring, so a
// huge one is a 200 with at most the ring's traces, never a handler panic.
func TestTraceHugeLast(t *testing.T) {
	s := testService()
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/trace?last=" + strconv.Itoa(math.MaxInt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire wireTraces
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Traces) > traceRing {
		t.Fatalf("%d traces, want at most %d", len(wire.Traces), traceRing)
	}
}

// TestTraceCoverage is the acceptance-criterion check: a recorded cold-miss
// trace must account for >= 95% of the request's wall time across its named
// top-level phases.
func TestTraceCoverage(t *testing.T) {
	s := testService()
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	resp, err := client.Post(srv.URL+"/v1/cl", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Plinger-Trace")
	var env struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if traceID == "" || env.TraceID != traceID {
		t.Fatalf("cold miss: header trace %q, body trace %q", traceID, env.TraceID)
	}

	tresp, err := client.Get(srv.URL + "/v1/trace?last=8")
	if err != nil {
		t.Fatal(err)
	}
	var wire wireTraces
	if err := json.NewDecoder(tresp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()

	var trace *obs.TraceSnapshot
	for i := range wire.Traces {
		if wire.Traces[i].ID == traceID {
			trace = &wire.Traces[i]
		}
	}
	if trace == nil {
		t.Fatalf("trace %s not in /v1/trace ring", traceID)
	}
	if trace.TotalMS <= 0 {
		t.Fatalf("trace %s has no total", traceID)
	}

	// The non-overlapping top-level phases of a cl request. Nested detail
	// (eval_tables, modes, bessel_tables) overlaps evolve and is excluded.
	topLevel := map[string]bool{
		"queue_wait": true, "model_acquire": true, "evolve": true,
		"source_spline": true, "project": true, "lspline": true,
		"assemble": true, "encode": true,
	}
	var covered float64
	for _, sp := range trace.Spans {
		if topLevel[sp.Name] {
			covered += sp.DurMS
		}
	}
	if covered < 0.95*trace.TotalMS {
		t.Fatalf("trace %s: top-level spans cover %.3f ms of %.3f ms (%.1f%%), want >= 95%%\nspans: %+v",
			traceID, covered, trace.TotalMS, 100*covered/trace.TotalMS, trace.Spans)
	}
	// Sanity on the phase names a cold cl sweep must record.
	for _, want := range []string{"evolve", "project", "model_acquire"} {
		found := false
		for _, sp := range trace.Spans {
			if sp.Name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("trace %s missing span %q (spans %+v)", traceID, want, trace.Spans)
		}
	}

	// A hot repeat must not create a new trace.
	before := s.Traces(64)
	resp2, err := client.Post(srv.URL+"/v1/cl", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if h := resp2.Header.Get("X-Plinger-Trace"); h != "" {
		t.Fatalf("cache hit carried trace header %q", h)
	}
	if after := s.Traces(64); len(after) != len(before) {
		t.Fatalf("cache hit grew the trace ring: %d -> %d", len(before), len(after))
	}
}

// TestStatsGoldenFields pins the /v1/stats wire contract: the top-level
// field set and the latency sub-object shape. Additions must extend this
// list deliberately; removals are breaking.
func TestStatsGoldenFields(t *testing.T) {
	s := testService()
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"avg_hit_ms", "avg_miss_ms", "bessel_tables", "cache", "coalesced",
		"defaults", "errors", "hits", "in_flight_keys", "latency_cl",
		"latency_pk", "misses", "models", "queue", "rejected", "requests",
		"sweeps", "timeouts", "traces",
		"uptime_seconds", "workers",
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("/v1/stats fields changed:\n got %v\nwant %v", got, want)
	}
	var lat map[string]json.RawMessage
	if err := json.Unmarshal(m["latency_cl"], &lat); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "p50_ms", "p95_ms", "p99_ms", "max_ms"} {
		if _, ok := lat[k]; !ok {
			t.Errorf("latency_cl missing %q (got %v)", k, lat)
		}
	}
}

// TestLatencyQuantilesInStats checks the histogram-backed quantiles move
// once requests flow.
func TestLatencyQuantilesInStats(t *testing.T) {
	s := testService()
	defer s.Close()
	if _, _, err := s.ComputeCl(t.Context(), ClRequest{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := s.ComputeCl(t.Context(), ClRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LatencyCl.Count != 5 {
		t.Fatalf("latency count %d, want 5", st.LatencyCl.Count)
	}
	if st.LatencyCl.MaxMS <= 0 || st.LatencyCl.P50MS <= 0 {
		t.Fatalf("latency quantiles did not move: %+v", st.LatencyCl)
	}
	if st.LatencyCl.P50MS > st.LatencyCl.MaxMS+1e-9 {
		t.Fatalf("p50 %v above max %v", st.LatencyCl.P50MS, st.LatencyCl.MaxMS)
	}
	if st.Traces != 1 {
		t.Fatalf("traces = %d, want 1 (one cold leader)", st.Traces)
	}
}

// TestSlowRequestLog drives a request through a service whose slow-request
// threshold is one nanosecond and asserts the structured warning fires with
// the request id and sweep trace id attached.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := New(Options{
		Defaults: testDefaults(), Workers: 1, CacheSize: 8, ModelCacheSize: 2,
		MaxConcurrent: 2, MaxQueue: 32,
		Logger:      slog.New(slog.NewTextHandler(lockedWriter, nil)),
		SlowRequest: time.Nanosecond,
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/v1/cl", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Plinger-Trace")
	resp.Body.Close()

	mu.Lock()
	logText := buf.String()
	mu.Unlock()
	if !strings.Contains(logText, `msg=request`) {
		t.Fatalf("no access log line:\n%s", logText)
	}
	if !strings.Contains(logText, `msg="slow request"`) {
		t.Fatalf("no slow-request warning:\n%s", logText)
	}
	if !strings.Contains(logText, "req=r-") {
		t.Fatalf("no request id in log:\n%s", logText)
	}
	if traceID == "" || !strings.Contains(logText, "trace="+traceID) {
		t.Fatalf("slow log missing trace id %q:\n%s", traceID, logText)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
