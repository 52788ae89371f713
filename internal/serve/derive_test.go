package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"plinger"
)

// sweptNormalized is a normalized product as a sweep of the normalized
// request itself makes it: the facade's spectrum, its NormalizeCOBE and its
// band powers, encoded as the service encodes a product. It is the
// reference a derived product must reproduce byte for byte.
func sweptNormalized(t *testing.T, req ClRequest, d Defaults) []byte {
	t.Helper()
	rr := req.resolve(d)
	m, err := plinger.New(*rr.Config)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := m.ComputeSpectrum(rr.options(d))
	if err != nil {
		t.Fatal(err)
	}
	scale, err := spec.NormalizeCOBE(rr.QCOBEMicroK)
	if err != nil {
		t.Fatal(err)
	}
	out := &ClResponse{L: spec.L, Cl: spec.Cl, AmpScale: scale, BandPowerUK: make([]float64, len(spec.L))}
	for i := range spec.L {
		out.BandPowerUK[i] = spec.BandPower(i)
	}
	p, err := newProduct(out)
	if err != nil {
		t.Fatal(err)
	}
	return p.body
}

// productBody is the cached body of req's key on s.
func productBody(t *testing.T, s *Service, req ClRequest) []byte {
	t.Helper()
	p, ok := s.cache.Get(req.Key(s.Defaults()))
	if !ok {
		t.Fatalf("%+v holds no product", req)
	}
	return p.body
}

// TestDerivedPayloadBytes holds a derived product to the bytes of a sweep
// of the normalized request, on the stock service at LMaxCl 150 and 300 and
// NK 130 and 140: derived from a base already cached, and derived by a
// fresh service that has to sweep the base first.
func TestDerivedPayloadBytes(t *testing.T) {
	d := DefaultDefaults()
	opts := Options{Defaults: d, Workers: 2, MaxConcurrent: 1}
	warm, cold := New(opts), New(opts)
	defer warm.Close()
	defer cold.Close()
	ctx := context.Background()
	for _, lmax := range []int{150, 300} {
		for _, nk := range []int{130, 140} {
			req := ClRequest{LMaxCl: lmax, NK: nk, QCOBEMicroK: 18}
			want := sweptNormalized(t, req, d)
			base := req
			base.QCOBEMicroK = 0
			if _, _, err := warm.ComputeCl(ctx, base); err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*Service{"cached base": warm, "cold base": cold} {
				_, meta, err := s.ComputeCl(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if meta.Source != SourceCompute {
					t.Fatalf("%d/%d, %s: source %s, want %s", lmax, nk, name, meta.Source, SourceCompute)
				}
				if got := productBody(t, s, req); !bytes.Equal(got, want) {
					t.Fatalf("%d/%d, %s: derived payload differs from the swept one\n got: %.200s\nwant: %.200s", lmax, nk, name, got, want)
				}
			}
		}
	}
	for name, s := range map[string]*Service{"cached base": warm, "cold base": cold} {
		if s.Sweeps() != 4 || s.derived.Value() != 4 {
			t.Fatalf("%s: %d sweeps and %d derivations, want 4 and 4", name, s.Sweeps(), s.derived.Value())
		}
	}
}

// holdSlot takes s's only compute slot for the test and returns its
// release.
func holdSlot(t *testing.T, s *Service) func() {
	t.Helper()
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s.adm.release
}

// waitFor polls cond for up to 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDerivedMissCoalescesOnOneSweep: with one compute slot, two concurrent
// normalized misses of one base both finish, on one sweep of the base. A
// derivation that held a slot while it waited for its base would deadlock
// here.
func TestDerivedMissCoalescesOnOneSweep(t *testing.T) {
	s := New(Options{Defaults: testDefaults(), Workers: 1, CacheSize: 8, ModelCacheSize: 2, MaxConcurrent: 1, MaxQueue: 32})
	defer s.Close()
	release := holdSlot(t, s)
	baseKey := ClRequest{}.Key(s.Defaults())
	type result struct {
		meta Meta
		err  error
	}
	results := make(chan result, 2)
	for _, q := range []float64{18, 20} {
		go func() {
			_, meta, err := s.ComputeCl(context.Background(), ClRequest{QCOBEMicroK: q})
			results <- result{meta, err}
		}()
	}
	waitFor(t, "both derivations to join the base's flight", func() bool {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		c := s.flights.m[baseKey]
		return c != nil && c.dups == 1
	})
	release()
	for range 2 {
		select {
		case r := <-results:
			if r.err != nil || r.meta.Source != SourceCompute {
				t.Fatalf("normalized miss: source %s, err %v", r.meta.Source, r.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("normalized misses did not finish: deadlocked on the compute slot")
		}
	}
	if s.Sweeps() != 1 || s.derived.Value() != 2 {
		t.Fatalf("%d sweeps and %d derivations, want 1 and 2", s.Sweeps(), s.derived.Value())
	}
	if st := s.Stats(); st.Requests != 2 || st.Misses != 2 {
		t.Fatalf("the base fetch counted as a request: %+v", st)
	}
}

// TestDerivedMissDeadline: a normalized miss whose deadline expires while
// its base waits for a slot is a 504, and the derivation still lands in the
// cache behind it.
func TestDerivedMissDeadline(t *testing.T) {
	s := New(Options{Defaults: testDefaults(), Workers: 1, CacheSize: 8, ModelCacheSize: 2, MaxConcurrent: 1, MaxQueue: 32})
	defer s.Close()
	ctx := context.Background()
	release := holdSlot(t, s)
	_, _, err := s.ComputeCl(ctx, ClRequest{QCOBEMicroK: 18, DeadlineMS: 1})
	release()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("1 ms deadline on a derivation behind a held slot: err %v", err)
	}
	waitFor(t, "the background derivation", func() bool { return s.derived.Value() == 1 })
	_, meta, err := s.ComputeCl(ctx, ClRequest{QCOBEMicroK: 18})
	if err != nil || meta.Source != SourceCache {
		t.Fatalf("after the timed-out derivation: source %s, err %v", meta.Source, err)
	}
	if st := s.Stats(); st.Timeouts != 1 || st.Sweeps != 1 {
		t.Fatalf("timeouts %d sweeps %d, want 1 and 1", st.Timeouts, st.Sweeps)
	}
}

// TestDerivedMissAfterEviction: a normalized key the LRU evicted, along
// with its base, is a plain miss again: a deadline behind a held slot is a
// 504, and the base's second sweep and the second derivation land the bytes
// of the first.
func TestDerivedMissAfterEviction(t *testing.T) {
	s := New(Options{Defaults: testDefaults(), Workers: 1, CacheSize: 1, ModelCacheSize: 2, MaxConcurrent: 1, MaxQueue: 32})
	defer s.Close()
	ctx := context.Background()
	norm := ClRequest{QCOBEMicroK: 18}
	if _, _, err := s.ComputeCl(ctx, norm); err != nil {
		t.Fatal(err)
	}
	want := productBody(t, s, norm)
	// The one-entry cache now holds a third key only.
	if _, _, err := s.ComputeCl(ctx, ClRequest{LMaxCl: 30}); err != nil {
		t.Fatal(err)
	}
	release := holdSlot(t, s)
	_, meta, err := s.ComputeCl(ctx, ClRequest{QCOBEMicroK: 18, DeadlineMS: 1})
	release()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("1 ms deadline on an evicted derivation: source %s, err %v", meta.Source, err)
	}
	waitFor(t, "the background derivation", func() bool { return s.derived.Value() == 2 })
	if got := productBody(t, s, norm); !bytes.Equal(got, want) {
		t.Fatal("the second derivation differs from the first")
	}
	if st := s.Stats(); st.Timeouts != 1 || st.Sweeps != 3 {
		t.Fatalf("timeouts %d sweeps %d, want 1 and 3", st.Timeouts, st.Sweeps)
	}
}

// TestClusterDerivedMissFetchesBaseOnOwner: a normalized key owned by node
// 1 whose base node 0 owns, asked of node 0, is forwarded once; node 1
// derives it from a base it sweeps itself rather than forwarding back, so
// no request travels more than one hop.
func TestClusterDerivedMissFetchesBaseOnOwner(t *testing.T) {
	nodes := newFleet(t, 2, nil, nil)
	var body string
	for lmax := 24; lmax < 64 && body == ""; lmax++ {
		norm := ClRequest{LMaxCl: lmax, QCOBEMicroK: 18}.Key(testDefaults())
		base := ClRequest{LMaxCl: lmax}.Key(testDefaults())
		_, normRemote := nodes[0].peering.Owner(norm)
		_, baseRemote := nodes[0].peering.Owner(base)
		if normRemote && !baseRemote {
			body = fmt.Sprintf(`{"lmax_cl": %d, "qcobe_uk": 18}`, lmax)
		}
	}
	if body == "" {
		t.Fatal("no normalized key owned across the fleet from its base among 40 candidates")
	}
	ref := testService()
	defer ref.Close()
	resp, env := postJSON(t, nodes[0].srv.Client(), nodes[0].url+"/v1/cl", body)
	if resp.StatusCode != http.StatusOK || env.Source != SourcePeer {
		t.Fatalf("status %d source %s, want 200 from %s", resp.StatusCode, env.Source, SourcePeer)
	}
	if canonResult(t, env.Result) != referenceResult(t, ref, body) {
		t.Fatal("forwarded derivation differs bitwise from the single-node reference")
	}
	owner := nodes[1].svc
	if nodes[0].svc.Sweeps() != 0 || owner.Sweeps() != 1 || owner.derived.Value() != 1 {
		t.Fatalf("sweeps %d + %d, owner derivations %d: want the owner's one sweep and derivation",
			nodes[0].svc.Sweeps(), owner.Sweeps(), owner.derived.Value())
	}
	if st := owner.Stats(); st.Cluster.PeerRequests != 0 {
		t.Fatalf("the owner forwarded %d requests: a peer-originated derivation must fetch its base locally", st.Cluster.PeerRequests)
	}
}

// BenchmarkDerivedMiss is one normalized miss of the stock 150/130 product
// whose base is cached: the base lookup, the rescaling, the band powers and
// the encoding, in process.
func BenchmarkDerivedMiss(b *testing.B) {
	s := New(Options{Defaults: DefaultDefaults(), Workers: 1, MaxConcurrent: 1})
	defer s.Close()
	ctx := context.Background()
	if _, _, err := s.ComputeCl(ctx, ClRequest{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		q := 10 + float64(i)*stepQCOBE // a key of its own each time
		if _, meta, err := s.ComputeCl(ctx, ClRequest{QCOBEMicroK: q}); err != nil || meta.Source != SourceCompute {
			b.Fatalf("source %s, err %v", meta.Source, err)
		}
	}
	if s.Sweeps() != 1 {
		b.Fatalf("%d sweeps, want the base's one", s.Sweeps())
	}
}
