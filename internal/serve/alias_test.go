package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// aliasOf is the digest a body sent to product name's routes is aliased by.
func aliasOf(name, body string) digest { return sha256.Sum256([]byte(name + body)) }

// aliasCount is the size of s's alias index.
func aliasCount(s *Service) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.aliases)
}

// residentDefaults is a test service holding the default product of both
// routes, no body aliased yet.
func residentDefaults(tb testing.TB) *Service {
	tb.Helper()
	s := testService()
	if _, _, err := s.ComputeCl(context.Background(), ClRequest{}); err != nil {
		s.Close()
		tb.Fatal(err)
	}
	if _, _, err := s.ComputePk(context.Background(), PkRequest{}); err != nil {
		s.Close()
		tb.Fatal(err)
	}
	return s
}

var elapsedField = regexp.MustCompile(`"elapsed_ms": [^,\n]+`)

// hitCounts are the counters a cache hit moves: /v1/stats and the
// endpoint histograms, and the hit time the average is taken over.
type hitCounts struct {
	requests, hits, misses, errs, lruHits, lruMisses, clCount, pkCount uint64
	hitNs                                                              int64
}

func countsOf(s *Service) hitCounts {
	st := s.Stats()
	return hitCounts{st.Requests, st.Hits, st.Misses, st.Errors, st.Cache.Hits, st.Cache.Misses,
		st.LatencyCl.Count, st.LatencyPk.Count, s.hitNs.Load()}
}

func (a hitCounts) minus(b hitCounts) hitCounts {
	return hitCounts{a.requests - b.requests, a.hits - b.hits, a.misses - b.misses, a.errs - b.errs,
		a.lruHits - b.lruHits, a.lruMisses - b.lruMisses, a.clCount - b.clCount, a.pkCount - b.pkCount,
		a.hitNs - b.hitNs}
}

// TestAliasHitMatchesDecodedHit: a body's first hit decodes it and makes
// it an alias, its second is found by the alias. The two answers are equal
// in bytes (but for the elapsed time) and in the X-Plinger-Source,
// X-Plinger-Key and Content-Type headers, and move the same counters.
func TestAliasHitMatchesDecodedHit(t *testing.T) {
	s := residentDefaults(t)
	defer s.Close()
	h := s.Handler()
	for i, name := range []string{"cl", "pk"} {
		const body = `{}`
		send := func() (*httptest.ResponseRecorder, hitCounts) {
			before := countsOf(s)
			rec := serveRecorded(h, "/v1/"+name, body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
			}
			return rec, countsOf(s).minus(before)
		}
		decoded, dDecoded := send()
		if aliasCount(s) != i+1 {
			t.Fatalf("%s: %d aliases after the decoded hit, want %d", name, aliasCount(s), i+1)
		}
		if _, _, ok := s.cache.GetAlias(aliasOf(name, body)); !ok {
			t.Fatalf("%s: the body's digest is no alias", name)
		}
		aliased, dAliased := send()
		for _, hdr := range []string{"X-Plinger-Source", "X-Plinger-Key", "Content-Type"} {
			if a, b := decoded.Header().Get(hdr), aliased.Header().Get(hdr); a != b || a == "" {
				t.Fatalf("%s: %s %q on the decoded hit, %q on the alias hit", name, hdr, a, b)
			}
		}
		checkLegacyBytes(t, s, aliased.Body.Bytes(), SourceCache)
		a := elapsedField.ReplaceAll(decoded.Body.Bytes(), nil)
		b := elapsedField.ReplaceAll(aliased.Body.Bytes(), nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: bodies differ beyond elapsed_ms\ndecoded: %q\naliased: %q", name, a, b)
		}
		if dDecoded.hitNs <= 0 || dAliased.hitNs <= 0 {
			t.Fatalf("%s: hit time not counted: %d ns decoded, %d ns aliased", name, dDecoded.hitNs, dAliased.hitNs)
		}
		dDecoded.hitNs, dAliased.hitNs = 0, 0
		want := hitCounts{requests: 1, hits: 1, lruHits: 1}
		if name == "cl" {
			want.clCount = 1
		} else {
			want.pkCount = 1
		}
		if dDecoded != want || dAliased != want {
			t.Fatalf("%s: counter deltas %+v decoded, %+v aliased, want %+v", name, dDecoded, dAliased, want)
		}
	}
}

// TestAliasSharedByPeerRoute: a body aliased on /v1/cl answers from the
// alias on /v1/peer/cl, and the other way round. The alias is pointed at
// another resident key so that only an alias hit can return that key.
func TestAliasSharedByPeerRoute(t *testing.T) {
	s := residentDefaults(t)
	defer s.Close()
	if _, _, err := s.ComputeCl(context.Background(), ClRequest{LMaxCl: 30}); err != nil {
		t.Fatal(err)
	}
	other := ClRequest{LMaxCl: 30}.Key(testDefaults())
	h := s.Handler()
	for _, paths := range [][2]string{{"/v1/cl", "/v1/peer/cl"}, {"/v1/peer/cl", "/v1/cl"}} {
		body := `{"deadline_ms": 100}`
		if paths[0] == "/v1/peer/cl" {
			body = `{"deadline_ms": 200}`
		}
		if rec := serveRecorded(h, paths[0], body); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", paths[0], rec.Code)
		}
		s.cache.Alias(other, aliasOf("cl", body))
		rec := serveRecorded(h, paths[1], body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Plinger-Key") != other {
			t.Fatalf("%s after %s: status %d, key %q, want the alias's %s",
				paths[1], paths[0], rec.Code, rec.Header().Get("X-Plinger-Key"), other)
		}
	}
}

// TestBadBodiesNeverAliased: a body with an unknown field, data after the
// object or a value the wire refuses gives the same 400 on every send and
// never becomes an alias, with its key resident or not, on the public and
// the peer route alike: no field of the body marks a forward.
func TestBadBodiesNeverAliased(t *testing.T) {
	s := residentDefaults(t)
	defer s.Close()
	h := s.Handler()
	for _, c := range [][2]string{
		{"/v1/cl", `{"lmaxcl": 24}`},
		{"/v1/cl", `{"config": {"Hubble": 0.5}}`},
		{"/v1/cl", `{} {}`},
		{"/v1/cl", `{}x`},
		{"/v1/cl", `{"nk": -1}`},
		{"/v1/cl", `{"lmax_cl": 99999}`},
		{"/v1/cl", `{"qcobe_uk": 1e-9}`},
		{"/v1/cl", `{"nk": 2}`},
		{"/v1/cl", `{"peer_hop": 2}`},
		{"/v1/peer/cl", `{"peer_hop": 2}`},
		{"/v1/peer/cl", `{"peer_hop": 1}`},
		{"/v1/pk", `{"nk": 99999}`},
		{"/v1/pk", `{"kmin": -1}`},
		{"/v1/pk", `{"lmax_cl": 24}`},
	} {
		var first []byte
		for i := range 3 {
			rec := serveRecorded(h, c[0], c[1])
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s, send %d: status %d, want 400", c[0], c[1], i, rec.Code)
			}
			if i == 0 {
				first = rec.Body.Bytes()
			} else if !bytes.Equal(rec.Body.Bytes(), first) {
				t.Fatalf("%s %s, send %d: %q, first send %q", c[0], c[1], i, rec.Body, first)
			}
		}
	}
	if n := aliasCount(s); n != 0 {
		t.Fatalf("%d bad bodies became aliases", n)
	}
}

// TestFailedReadOfAliasedBody: a read that fails after an aliased body's
// bytes answers as it did before the alias, 400 for a broken connection
// and 413 for a body over the bound, never from the alias.
func TestFailedReadOfAliasedBody(t *testing.T) {
	s := residentDefaults(t)
	defer s.Close()
	h := s.Handler()
	if rec := serveRecorded(h, "/v1/cl", `{}`); rec.Code != http.StatusOK || aliasCount(s) != 1 {
		t.Fatalf("status %d, %d aliases", rec.Code, aliasCount(s))
	}
	for _, c := range []struct {
		body io.Reader
		want int
	}{
		{io.MultiReader(strings.NewReader(`{}`), failingBody{}), http.StatusBadRequest},
		{strings.NewReader(`{}` + strings.Repeat(" ", maxRequestBody)), http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cl", c.body))
		if rec.Code != c.want {
			t.Fatalf("status %d, want %d: %s", rec.Code, c.want, rec.Body)
		}
	}
}

// TestAliasBoundedByCache: with room for one product, two keys sent in
// turn evict each other, the alias index never holds more entries than the
// cache, and an evicted key's body is decoded and swept again.
func TestAliasBoundedByCache(t *testing.T) {
	s := New(Options{Defaults: testDefaults(), Workers: 1, CacheSize: 1, ModelCacheSize: 1, MaxConcurrent: 1, MaxQueue: 4})
	defer s.Close()
	h := s.Handler()
	bodies := []string{`{}`, `{"lmax_cl": 30}`}
	for i := range 6 {
		body := bodies[i%2]
		rec := serveRecorded(h, "/v1/cl", body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Plinger-Source") != string(SourceCompute) {
			t.Fatalf("send %d of %s: status %d, source %q, want a compute", i, body, rec.Code, rec.Header().Get("X-Plinger-Source"))
		}
		if n := aliasCount(s); n != 1 {
			t.Fatalf("send %d: %d aliases, cache size 1", i, n)
		}
		if _, _, ok := s.cache.GetAlias(aliasOf("cl", bodies[(i+1)%2])); ok {
			t.Fatalf("send %d: the evicted key's body is still an alias", i)
		}
		if got := s.Sweeps(); got != uint64(i+1) {
			t.Fatalf("send %d: %d sweeps, want %d", i, got, i+1)
		}
	}
	if rec := serveRecorded(h, "/v1/cl", bodies[1]); rec.Header().Get("X-Plinger-Source") != string(SourceCache) {
		t.Fatalf("the resident key's body: source %q, want cache", rec.Header().Get("X-Plinger-Source"))
	}
}

// FuzzHitAlias sends every body twice to a service holding the default
// product of both routes: the two answers agree in status and, from
// "result" on, in bytes, whether the second came from an alias or not. A
// body that validates to a key not resident is skipped, so no sweep runs.
func FuzzHitAlias(f *testing.F) {
	for _, b := range []string{
		`{}`, `{"lmax_cl": 30}`,
		`{"lmaxcl": 24}`, `{} {}`, `{}x`,
		`{"qcobe_uk": 18}`,
		``, ` `, "{ }", "\n{}\n", "\t{ \n}\r\n",
	} {
		f.Add(b)
	}
	s := residentDefaults(f)
	defer s.Close()
	h := s.Handler()
	d := s.Defaults()
	f.Fuzz(func(t *testing.T, body string) {
		if cold[ClRequest](s, body, func(r ClRequest) string { return r.Key(d) }) ||
			cold[PkRequest](s, body, func(r PkRequest) string { return r.Key(d) }) {
			return
		}
		sweeps := s.Sweeps()
		for _, path := range []string{"/v1/cl", "/v1/pk"} {
			first := serveRecorded(h, path, body)
			second := serveRecorded(h, path, body)
			if first.Code != second.Code {
				t.Fatalf("%s %q: status %d, then %d", path, body, first.Code, second.Code)
			}
			a, b := first.Body.Bytes(), second.Body.Bytes()
			if first.Code == http.StatusOK {
				a, b = resultPart(t, a), resultPart(t, b)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s %q: answers differ\nfirst:  %q\nsecond: %q", path, body, a, b)
			}
		}
		if s.Sweeps() != sweeps {
			t.Fatalf("%q ran a sweep", body)
		}
	})
}

// cold reports a body that decodes as a valid R, as the handler decodes
// it, whose key is not resident: sending it would sweep.
func cold[R interface{ Validate() error }](s *Service, body string, key func(R) string) bool {
	var r R
	if !decodeJSON(httptest.NewRecorder(), strings.NewReader(body), &r) || r.Validate() != nil {
		return false
	}
	_, resident := s.cache.Get(key(r))
	return !resident
}
