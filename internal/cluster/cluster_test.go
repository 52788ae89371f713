package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plinger/internal/fault"
)

// testPeering builds a Peering around one httptest peer with fast,
// monitor-free settings; tests that want heartbeats override PingInterval.
func testPeering(t *testing.T, peerURL string, mutate func(*Options)) *Peering {
	t.Helper()
	opts := Options{
		Self:         "http://self.test:1",
		Peers:        []string{peerURL},
		HopTimeout:   500 * time.Millisecond,
		Backoff:      time.Millisecond,
		PingInterval: -1,
	}
	if mutate != nil {
		mutate(&opts)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewNormalizesAndFiltersSelf(t *testing.T) {
	p, err := New(Options{
		Self:         "HTTP://self.test:1/",
		Peers:        []string{"self.test:1", "peer-a:2/", "http://peer-a:2", "peer-b:3"},
		PingInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := []string{"http://peer-a:2", "http://peer-b:3", "http://self.test:1"}
	got := p.Members()
	if len(got) != len(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members %v, want %v", got, want)
		}
	}
	if _, err := New(Options{Self: "self:1", Peers: []string{"ftp://peer:2"}}); err == nil {
		t.Fatal("ftp peer address accepted")
	}
	if _, err := New(Options{Peers: []string{"peer:2"}}); err == nil {
		t.Fatal("missing self accepted with non-empty peer list")
	}
}

// A transient 5xx is retried within the same Fetch and the caller never
// sees the blip.
func TestFetchRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	p := testPeering(t, srv.URL, nil)
	b, err := p.Fetch(context.Background(), srv.URL, "/v1/peer/cl", []byte(`{}`))
	if err != nil {
		t.Fatalf("fetch after transient 503: %v", err)
	}
	if string(b) != `{"ok":true}`+"\n" && string(b) != `{"ok":true}` {
		t.Fatalf("body %q", b)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("peer saw %d calls, want 2 (original + one retry)", n)
	}
}

// 4xx means protocol disagreement, not a sick peer: no retry.
func TestFetchDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()
	p := testPeering(t, srv.URL, nil)
	if _, err := p.Fetch(context.Background(), srv.URL, "/v1/peer/cl", nil); err == nil {
		t.Fatal("fetch of a 400 succeeded")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("peer saw %d calls, want 1 (4xx is non-retriable)", n)
	}
}

// Once the breaker opens, fetches fail in microseconds with ErrPeerDown
// instead of burning a timeout per request — the heart of degrade-to-local.
func TestBreakerOpensThenFailsFast(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	p := testPeering(t, srv.URL, func(o *Options) {
		o.Retries = -1 // isolate: one attempt per Fetch
		o.BreakerThreshold = 3
		o.BreakerCooldown = time.Hour
	})
	for i := 0; i < 3; i++ {
		if _, err := p.Fetch(context.Background(), srv.URL, "/x", nil); err == nil {
			t.Fatalf("fetch %d of a 500 succeeded", i)
		}
	}
	start := time.Now()
	_, err := p.Fetch(context.Background(), srv.URL, "/x", nil)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err=%v, want ErrPeerDown from the open breaker", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("open-breaker fetch took %s, want instant", el)
	}
	if st := p.Status(); st.Peers[0].Breaker != "open" {
		t.Fatalf("breaker state %q, want open", st.Peers[0].Breaker)
	}
}

// The heartbeat monitor demotes a killed peer off the ring (ownership
// re-shards to the survivors) and re-admits it when it answers again.
func TestMembershipDeathAndRejoin(t *testing.T) {
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "dying", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("pong"))
	}))
	defer srv.Close()
	p := testPeering(t, srv.URL, func(o *Options) {
		o.PingInterval = 10 * time.Millisecond
		o.pingTimeout = 100 * time.Millisecond
		o.pingMisses = 2
	})
	if !p.Alive(srv.URL) {
		t.Fatal("peer not optimistically alive at start")
	}
	down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for p.Alive(srv.URL) {
		if time.Now().After(deadline) {
			t.Fatal("monitor never declared the failing peer dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if owner, remote := p.Owner("cl-deadbeef"); remote {
		t.Fatalf("key still owned by dead peer %s", owner)
	}
	down.Store(false)
	for !p.Alive(srv.URL) {
		if time.Now().After(deadline) {
			t.Fatal("monitor never re-admitted the recovered peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.Status(); st.Rejoins == 0 {
		t.Fatal("rejoin not counted")
	}
}

func TestOfferBestEffort(t *testing.T) {
	var gotBody atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, r.ContentLength)
		r.Body.Read(b)
		gotBody.Store(string(b))
	}))
	defer srv.Close()
	p := testPeering(t, srv.URL, nil)
	if err := p.Offer(srv.URL, "/v1/peer/offer", []byte(`{"key":"cl-1"}`)); err != nil {
		t.Fatalf("offer: %v", err)
	}
	if got, _ := gotBody.Load().(string); !strings.Contains(got, "cl-1") {
		t.Fatalf("peer received %q", got)
	}
	if st := p.Status(); st.Backfills != 1 {
		t.Fatalf("backfills=%d, want 1", st.Backfills)
	}

	// Against an open breaker the offer is skipped, not attempted.
	srv.Close()
	for i := 0; i < 3; i++ {
		p.Fetch(context.Background(), srv.URL, "/x", nil)
	}
	if err := p.Offer(srv.URL, "/v1/peer/offer", nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("offer to open breaker: err=%v, want ErrPeerDown", err)
	}
}

// A Fetch through a hanging peer respects the per-hop timeout — the wall
// bound (hop timeout x attempts) that the degradation contract promises.
func TestFetchHopTimeoutBoundsHangingPeer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	ft := fault.NewTransport(nil, fault.Plan{Then: fault.Hang}, nil)
	p := testPeering(t, srv.URL, func(o *Options) {
		o.Transport = ft
		o.HopTimeout = 100 * time.Millisecond
		o.Retries = 1
	})
	start := time.Now()
	_, err := p.Fetch(context.Background(), srv.URL, "/x", nil)
	el := time.Since(start)
	if err == nil {
		t.Fatal("fetch through a hung transport succeeded")
	}
	// Two attempts x 100ms hop + ~ms backoff; generous CI margin.
	if el > 2*time.Second {
		t.Fatalf("hung fetch took %s, hop timeout not enforced", el)
	}
	if st := ft.Stats(); st.Hung != 2 {
		t.Fatalf("plan stats %+v, want both attempts hung", st)
	}
}
