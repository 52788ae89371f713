package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// legacyEnvelope is the response envelope as it was written before a
// product carried its own encoding: writeJSON over the head fields and the
// value itself. It stays here as the reference the spliced response must
// reproduce byte for byte.
type legacyEnvelope struct {
	Key       string  `json:"key"`
	Source    Source  `json:"source"`
	ElapsedMS float64 `json:"elapsed_ms"`
	TraceID   string  `json:"trace_id,omitempty"`
	Peer      string  `json:"peer,omitempty"`
	Result    any     `json:"result"`
}

func legacyBody(env legacyEnvelope) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, env)
	return rec.Body.Bytes()
}

// serveRecorded runs one request through h and returns the recorder.
func serveRecorded(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// checkLegacyBytes holds one 200 response body to the legacy encoding of
// the value s holds for its key, at the body's own elapsed_ms (a float64
// that round-trips exactly through its JSON text), and returns it parsed.
func checkLegacyBytes(t *testing.T, s *Service, got []byte, want Source) wireEnvelope {
	t.Helper()
	var head wireEnvelope
	if err := json.Unmarshal(got, &head); err != nil {
		t.Fatalf("body does not parse: %v\n%s", err, got)
	}
	if head.Source != want {
		t.Fatalf("source %q, want %q", head.Source, want)
	}
	p, ok := s.cache.Get(head.Key)
	if !ok {
		t.Fatalf("key %s holds no product", head.Key)
	}
	ref := legacyBody(legacyEnvelope{
		Key: head.Key, Source: head.Source, ElapsedMS: head.ElapsedMS,
		TraceID: head.TraceID, Peer: head.Peer, Result: p.v,
	})
	if !bytes.Equal(got, ref) {
		t.Fatalf("source %s: body differs from the legacy envelope\n got: %q\nwant: %q", want, got, ref)
	}
	return head
}

// resultPart is a body from its "result" field on.
func resultPart(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`"result":`))
	if i < 0 {
		t.Fatalf("no result field in %q", body)
	}
	return body[i:]
}

// TestResponseBytesUnchanged holds the wire to the bytes the envelope
// encoder wrote before products carried their encoding: every source of
// /v1/cl and /v1/pk through Handler(), with a trace id, with a peer, and
// with a key and a peer that need JSON escaping.
func TestResponseBytesUnchanged(t *testing.T) {
	s := New(Options{Defaults: testDefaults(), Workers: 1, ModelCacheSize: 2, MaxConcurrent: 1, MaxQueue: 32})
	defer s.Close()
	h := s.Handler()

	// compute, with its trace id, then cache: the hit's result is the miss's.
	rec := serveRecorded(h, "/v1/cl", `{}`)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("cold cl: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	miss := rec.Body.Bytes()
	if head := checkLegacyBytes(t, s, miss, SourceCompute); head.TraceID == "" {
		t.Fatal("compute response carries no trace id")
	}
	hit := serveRecorded(h, "/v1/cl", `{}`).Body.Bytes()
	checkLegacyBytes(t, s, hit, SourceCache)
	if !bytes.Equal(resultPart(t, hit), resultPart(t, miss)) {
		t.Fatal("a hit's result bytes differ from the miss's")
	}

	pkMiss := serveRecorded(h, "/v1/pk", `{}`).Body.Bytes()
	checkLegacyBytes(t, s, pkMiss, SourceCompute)
	pkHit := serveRecorded(h, "/v1/pk", `{}`).Body.Bytes()
	checkLegacyBytes(t, s, pkHit, SourceCache)
	if !bytes.Equal(resultPart(t, pkHit), resultPart(t, pkMiss)) {
		t.Fatal("a pk hit's result bytes differ from the miss's")
	}

	// coalesced: the test holds the only compute slot, so the leader of a
	// cold key waits in the queue while a second request joins its flight.
	ctx := context.Background()
	if err := s.adm.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	const coldBody = `{"lmax_cl": 30}`
	coldKey := ClRequest{LMaxCl: 30}.Key(testDefaults())
	recs := make(chan *httptest.ResponseRecorder, 2)
	go func() { recs <- serveRecorded(h, "/v1/cl", coldBody) }()
	for s.adm.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() { recs <- serveRecorded(h, "/v1/cl", coldBody) }()
	for {
		s.flights.mu.Lock()
		joined := s.flights.m[coldKey] != nil && s.flights.m[coldKey].dups > 0
		s.flights.mu.Unlock()
		if joined {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.adm.release()
	bodies := map[Source][]byte{}
	for range 2 {
		b := (<-recs).Body.Bytes()
		var head wireEnvelope
		if err := json.Unmarshal(b, &head); err != nil {
			t.Fatalf("coalesced pair: %v\n%s", err, b)
		}
		bodies[head.Source] = b
	}
	checkLegacyBytes(t, s, bodies[SourceCompute], SourceCompute)
	checkLegacyBytes(t, s, bodies[SourceCoalesced], SourceCoalesced)

	// peer: a key the first node of a fleet does not own.
	nodes := newFleet(t, 2, nil, nil)
	body, _ := remoteOwnedBody(t, nodes[0], nil)
	resp, err := nodes[0].srv.Client().Post(nodes[0].url+"/v1/cl", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	peerBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if head := checkLegacyBytes(t, nodes[0].svc, peerBody, SourcePeer); head.Peer != nodes[1].url {
		t.Fatalf("peer %q, want %q", head.Peer, nodes[1].url)
	}

	// A key and a peer that need escaping (HTML-sensitive characters, a
	// quote, U+2028) cannot come from key derivation or a listen address,
	// so they go straight to the writer every handler shares.
	p, _ := s.cache.Get(coldKey)
	meta := Meta{
		Key: "cl:\"<&>\u2028\\", Source: SourcePeer, Elapsed: 1234567 * time.Nanosecond,
		Trace: "sw-<000001>", Peer: "http://owner/?a=1&b=<2>",
	}
	w := httptest.NewRecorder()
	s.writeResponse(w, p, meta, nil)
	ref := legacyBody(legacyEnvelope{
		Key: meta.Key, Source: meta.Source, ElapsedMS: 1.234567,
		TraceID: meta.Trace, Peer: meta.Peer, Result: p.v,
	})
	if !bytes.Equal(w.Body.Bytes(), ref) {
		t.Fatalf("escaped head differs from the legacy envelope\n got: %q\nwant: %q", w.Body.Bytes(), ref)
	}
}

// TestResponseHeadEncoding holds the hand-written head to encoding/json
// at the ends of a Duration's range and on strings only escaping can
// write: control bytes, invalid UTF-8, U+2029, DEL.
func TestResponseHeadEncoding(t *testing.T) {
	p := &product{v: []int{1}, body: []byte("[\n    1\n  ]")}
	for _, ns := range []int64{0, 1, -1, 999, 1e6 + 1, 123456789, 1 << 62, math.MaxInt64, math.MinInt64} {
		meta := Meta{Key: "cl-0123", Source: SourceCache, Elapsed: time.Duration(ns)}
		for _, str := range []string{"", "plain", "\x00\b\f\n\r\t\x1f", "\xff\xfe", "a\u2029b", "\x7f", "é€"} {
			meta.Trace, meta.Peer = str, str
			w := httptest.NewRecorder()
			(&Service{}).writeResponse(w, p, meta, nil)
			ref := legacyBody(legacyEnvelope{
				Key: meta.Key, Source: meta.Source, ElapsedMS: float64(ns) / 1e6,
				TraceID: str, Peer: str, Result: p.v,
			})
			if !bytes.Equal(w.Body.Bytes(), ref) {
				t.Fatalf("elapsed %d ns, string %q:\n got: %q\nwant: %q", ns, str, w.Body.Bytes(), ref)
			}
		}
	}
}

// TestHitBodyNotAliased serves one product whose body has spare capacity to
// 64 concurrent hits: a writer that appended to the cached slice in place
// would race (and, under -race, be reported) and garble the payloads.
func TestHitBodyNotAliased(t *testing.T) {
	s := testService()
	defer s.Close()
	if _, _, err := s.ComputeCl(context.Background(), ClRequest{}); err != nil {
		t.Fatal(err)
	}
	key := ClRequest{}.Key(testDefaults())
	p, _ := s.cache.Get(key)
	roomy := make([]byte, len(p.body), 2*len(p.body)+64)
	copy(roomy, p.body)
	s.cache.Add(key, &product{v: p.v, body: roomy})

	h := s.Handler()
	const n = 64
	results := make([]json.RawMessage, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var env wireEnvelope
			b := serveRecorded(h, "/v1/cl", `{}`).Body.Bytes()
			if err := json.Unmarshal(b, &env); err != nil {
				t.Errorf("hit %d does not parse: %v", i, err)
				return
			}
			if env.Source != SourceCache {
				t.Errorf("hit %d: source %q", i, env.Source)
			}
			results[i] = env.Result
		}()
	}
	wg.Wait()
	for i := range results {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("hit %d payload differs from hit 0", i)
		}
	}
	if !bytes.Equal(roomy, p.body) {
		t.Fatal("a hit wrote into the cached body")
	}
}

type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestOversizedBody413 posts one byte past the 1 MiB request bound to the
// public and the peer compute route: 413, while every other body read
// failure stays 400.
func TestOversizedBody413(t *testing.T) {
	s := testService()
	defer s.Close()
	h := s.Handler()
	big := strings.Repeat(" ", maxRequestBody+1)
	for _, path := range []string{"/v1/cl", "/v1/peer/cl"} {
		if rec := serveRecorded(h, path, big); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(big), rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cl", failingBody{}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("failed body read: status %d, want 400", rec.Code)
	}
	if s.Sweeps() != 0 {
		t.Errorf("rejected bodies ran %d sweeps", s.Sweeps())
	}
}

// residentHit returns the handler of a service that holds the default
// product of d, so `{}` hits it, and the service's Close.
func residentHit(tb testing.TB, d Defaults) (http.Handler, func()) {
	tb.Helper()
	s := New(Options{Defaults: d, Workers: 1, CacheSize: 8, ModelCacheSize: 1, MaxConcurrent: 1, MaxQueue: 8})
	if _, _, err := s.ComputeCl(context.Background(), ClRequest{}); err != nil {
		s.Close()
		tb.Fatal(err)
	}
	return s.Handler(), s.Close
}

// BenchmarkHandlerHit is one /v1/cl cache hit of the stock 150/130 product
// through the handler, no socket: the body read, its alias lookup, logging
// and the spliced response (the first call decodes and aliases the body).
func BenchmarkHandlerHit(b *testing.B) {
	h, done := residentHit(b, DefaultDefaults())
	defer done()
	b.ReportAllocs()
	for b.Loop() {
		if rec := serveRecorded(h, "/v1/cl", `{}`); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// TestHandlerHitAllocBudget bounds the allocations of one cache hit through
// the handler, recorder and request included. Measured with go1.24 on
// amd64: 25 per hit found by its body's alias, where decoding the body and
// deriving its key cost 57 and encoding the cached value again 67. Any new
// per-hit allocation goes over.
func TestHandlerHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const budget = 25
	h, done := residentHit(t, testDefaults())
	defer done()
	allocs := testing.AllocsPerRun(200, func() {
		if rec := serveRecorded(h, "/v1/cl", `{}`); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if allocs > budget {
		t.Fatalf("a cache hit through the handler allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("%.0f allocations per hit (budget %d)", allocs, budget)
}
