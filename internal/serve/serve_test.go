package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"plinger"
	"plinger/internal/dispatch"
)

// clCfg is SCDM with a different Hubble constant (Flatten absorbs the
// radiation-density shift that comes with changing H).
func clCfg(h float64) plinger.Config {
	cfg := plinger.SCDM()
	cfg.H = h
	cfg.Flatten = true
	return cfg
}

// clOptsTiny is the cheapest real spectrum computation.
func clOptsTiny() plinger.SpectrumOptions {
	return plinger.SpectrumOptions{LMaxCl: 12, NK: 24, FastLOS: true}
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	a, b, cc, c2 := &product{v: 1}, &product{v: 2}, &product{v: 3}, &product{v: 33}
	c.Add("a", a)
	c.Add("b", b)
	if p, ok := c.Get("a"); !ok || p != a {
		t.Fatal("a missing")
	}
	c.Add("c", cc) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	c.Add("c", c2) // refresh in place
	if p, _ := c.Get("c"); p != c2 {
		t.Fatal("refresh lost")
	}
}

// TestFlightGroupCoalesces is the unit-level coalescing guarantee: the
// leader's fn runs exactly once no matter how many goroutines pile onto
// the key, and every follower receives the leader's value.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	const n = 16
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0

	var wg sync.WaitGroup
	vals := make([]any, n)
	coal := make([]bool, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], _, coal[0] = g.Do("k", func() (any, error) {
			close(started)
			<-release
			calls++
			return 42, nil
		})
	}()
	<-started // leader inside fn; everyone else must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, coal[i] = g.Do("k", func() (any, error) {
				calls++
				return -1, nil
			})
		}(i)
	}
	// Wait until all followers are registered on the call before releasing.
	for {
		g.mu.Lock()
		d := g.m["k"].dups
		g.mu.Unlock()
		if d == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times", calls)
	}
	for i := 0; i < n; i++ {
		if vals[i].(int) != 42 {
			t.Fatalf("goroutine %d got %v", i, vals[i])
		}
		if (i == 0) == coal[i] {
			t.Fatalf("goroutine %d coalesced=%v", i, coal[i])
		}
	}
	if g.InFlight() != 0 {
		t.Fatal("flight leaked")
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	var g flightGroup
	wantErr := errors.New("boom")
	_, err, _ := g.Do("k", func() (any, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	// The key must be reusable after a failure.
	v, err, _ := g.Do("k", func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry failed: %v %v", v, err)
	}
}

// TestFlightGroupPanic: a panic in the leader's fn is the error of the
// leader and of a follower coalesced onto it, the key leaves the group, and
// the next Do for it runs fn again.
func TestFlightGroupPanic(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, err, _ := g.Do("k", func() (any, error) {
			close(started)
			<-release
			panic("sweep blew up")
		})
		errs <- err
	}()
	<-started
	go func() {
		_, err, coalesced := g.Do("k", func() (any, error) { return 1, nil })
		if !coalesced {
			err = errors.New("the follower ran fn itself")
		}
		errs <- err
	}()
	for {
		g.mu.Lock()
		d := g.m["k"].dups
		g.mu.Unlock()
		if d == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for range 2 {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "sweep blew up") {
			t.Fatalf("err = %v, want the panic as an error", err)
		}
	}
	if n := g.InFlight(); n != 0 {
		t.Fatalf("%d keys left in flight", n)
	}
	v, err, coalesced := g.Do("k", func() (any, error) { return 7, nil })
	if err != nil || coalesced || v.(int) != 7 {
		t.Fatalf("next Do: %v %v coalesced=%v", v, err, coalesced)
	}
}

func TestAdmissionBounds(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Slot taken; one waiter allowed, second waiter rejected.
	waiterIn := make(chan error, 1)
	go func() {
		err := a.acquire(context.Background())
		waiterIn <- err
	}()
	// Give the waiter time to enter the line.
	for a.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow acquire: %v", err)
	}
	a.release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	a.release()

	// Context cancellation frees a waiter.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx) }()
	for a.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	a.release()
}

// testDefaults keeps service tests fast: a coarse spectrum still exercises
// the full path (model build, sweep, fast projection).
func testDefaults() Defaults {
	return Defaults{LMaxCl: 24, NK: 36, KRefine: 4, PkNK: 8}
}

func testService() *Service {
	return New(Options{Defaults: testDefaults(), Workers: 1, CacheSize: 8, ModelCacheSize: 2, MaxConcurrent: 2, MaxQueue: 32})
}

// TestServiceCoalescesColdRequests is the acceptance-criterion test:
// concurrent identical cold requests trigger exactly one sweep.
func TestServiceCoalescesColdRequests(t *testing.T) {
	s := testService()
	defer s.Close()
	const n = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	metas := make([]Meta, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, metas[i], errs[i] = s.ComputeCl(context.Background(), ClRequest{})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.Sweeps(); got != 1 {
		t.Fatalf("%d concurrent identical cold requests ran %d sweeps, want exactly 1", n, got)
	}
	computed, coalesced := 0, 0
	for _, m := range metas {
		switch m.Source {
		case SourceCompute:
			computed++
		case SourceCoalesced:
			coalesced++
		}
	}
	if computed != 1 || coalesced != n-1 {
		t.Fatalf("sources: %d computed, %d coalesced", computed, coalesced)
	}

	// And the key is now hot: a repeat is a cache hit with no new sweep.
	_, meta, err := s.ComputeCl(context.Background(), ClRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Source != SourceCache || s.Sweeps() != 1 {
		t.Fatalf("repeat request: source %s, sweeps %d", meta.Source, s.Sweeps())
	}
}

func TestServiceServesDistinctProducts(t *testing.T) {
	s := testService()
	defer s.Close()
	ctx := context.Background()

	cl, meta, err := s.ComputeCl(ctx, ClRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Source != SourceCompute || len(cl.L) == 0 || len(cl.Cl) != len(cl.L) || len(cl.BandPowerUK) != len(cl.L) {
		t.Fatalf("bad cl response: %+v meta %+v", cl, meta)
	}
	for i, v := range cl.Cl {
		if v <= 0 {
			t.Fatalf("C_l[%d] = %g not positive", i, v)
		}
	}

	// COBE-normalized variant: separate key, rescaled payload.
	norm, meta2, err := s.ComputeCl(ctx, ClRequest{QCOBEMicroK: 18})
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Key == meta.Key {
		t.Fatal("normalized request shares the raw key")
	}
	if norm.AmpScale <= 0 {
		t.Fatal("normalized response missing AmpScale")
	}

	pk, _, err := s.ComputePk(ctx, PkRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pk.K) == 0 || len(pk.P) != len(pk.K) || pk.Sigma8 <= 0 {
		t.Fatalf("bad pk response: %+v", pk)
	}

	// Three computed products, two sweeps: the normalized C_l is rescaled
	// from the raw one.
	st := s.Stats()
	if st.Sweeps != 2 || st.Misses != 3 || s.derived.Value() != 1 {
		t.Fatalf("stats after three products (%d derived): %+v", s.derived.Value(), st)
	}
	if st.Models.Builds != 1 {
		t.Fatalf("one cosmology built %d models", st.Models.Builds)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	s := testService()
	defer s.Close()
	ctx := context.Background()
	if _, _, err := s.ComputeCl(ctx, ClRequest{NK: 2}); err == nil {
		t.Fatal("NK=2 accepted")
	}
	if _, _, err := s.ComputePk(ctx, PkRequest{KMin: 0.5, KMax: 0.1}); err == nil {
		t.Fatal("inverted range accepted")
	}
	// Negative wire values must be rejected, not resolved to defaults
	// (the facade never sees them; resolve treats only zero as default).
	for name, err := range map[string]error{
		"cl nk":      func() error { _, _, err := s.ComputeCl(ctx, ClRequest{NK: -5}); return err }(),
		"cl lmax":    func() error { _, _, err := s.ComputeCl(ctx, ClRequest{LMaxCl: -1}); return err }(),
		"cl krefine": func() error { _, _, err := s.ComputeCl(ctx, ClRequest{KRefine: -2}); return err }(),
		"cl qcobe":   func() error { _, _, err := s.ComputeCl(ctx, ClRequest{QCOBEMicroK: -18}); return err }(),
		"cl qcobe~0": func() error { _, _, err := s.ComputeCl(ctx, ClRequest{QCOBEMicroK: 1e-9}); return err }(),
		"pk nk":      func() error { _, _, err := s.ComputePk(ctx, PkRequest{NK: -1}); return err }(),
		"pk kmin":    func() error { _, _, err := s.ComputePk(ctx, PkRequest{KMin: -1}); return err }(),
		"pk amp":     func() error { _, _, err := s.ComputePk(ctx, PkRequest{Amp: -1}); return err }(),
	} {
		if err == nil {
			t.Errorf("%s: negative/degenerate wire value accepted", name)
		}
	}
	if s.Sweeps() != 0 {
		t.Fatal("bad requests ran sweeps")
	}
	// Errors are not cached: a correct request after a bad one succeeds.
	if _, _, err := s.ComputeCl(ctx, ClRequest{}); err != nil {
		t.Fatal(err)
	}
}

// TestServiceLeaderSurvivesCancelledClient pins the coalescing contract
// under client churn: the flight leader's own request context must not
// abort the shared computation.
func TestServiceLeaderSurvivesCancelledClient(t *testing.T) {
	s := testService()
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the "leader" client is already gone when compute starts
	if _, _, err := s.ComputeCl(ctx, ClRequest{}); err != nil {
		t.Fatalf("cancelled leader failed the shared computation: %v", err)
	}
	// The value computed on its behalf is cached for everyone else.
	_, meta, err := s.ComputeCl(context.Background(), ClRequest{})
	if err != nil || meta.Source != SourceCache {
		t.Fatalf("follow-up: source %s err %v", meta.Source, err)
	}
}

func TestServiceBusy(t *testing.T) {
	// One slot, zero waiters: a second distinct cold request while the
	// first computes must be rejected with ErrBusy.
	s := New(Options{Defaults: testDefaults(), Workers: 1, CacheSize: 8, ModelCacheSize: 2, MaxConcurrent: 1, MaxQueue: -1})
	defer s.Close()
	ctx := context.Background()

	firstDone := make(chan error, 1)
	go func() {
		_, _, err := s.ComputeCl(ctx, ClRequest{})
		firstDone <- err
	}()
	// Wait for the first request to occupy the compute slot.
	for s.adm.Stats().Computing == 0 {
		select {
		case err := <-firstDone:
			t.Fatalf("first request finished early: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	_, _, err := s.ComputeCl(ctx, ClRequest{LMaxCl: 30}) // distinct key
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("overload request: %v", err)
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected count %d", st.Rejected)
	}
}

// TestModelCacheEvictedModelStillComputes: a model the LRU has evicted
// still computes for the request that holds it, on the shared pool every
// model of the registry is attached to.
func TestModelCacheEvictedModelStillComputes(t *testing.T) {
	pool := dispatch.NewSharedPool(1)
	defer pool.Close()
	mc := newModelCache(1, pool)
	cfgA := clCfg(0.5)
	cfgB := clCfg(0.55)

	mA, err := mc.acquire(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	// Evict A while it is in use; it must keep working.
	if _, err := mc.acquire(cfgB); err != nil {
		t.Fatal(err)
	}
	if _, err := mA.ComputeSpectrum(clOptsTiny()); err != nil {
		t.Fatalf("evicted-but-referenced model broken: %v", err)
	}
	st := mc.Stats()
	if st.Builds != 2 || st.Evictions != 1 || st.Size != 1 {
		t.Fatalf("stats %+v", st)
	}
}
