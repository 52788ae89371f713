package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plinger/internal/cluster"
	"plinger/internal/farm"
	"plinger/internal/fault"
	"plinger/internal/obs"
)

// fleetNode is one in-process daemon of a test fleet.
type fleetNode struct {
	svc     *Service
	peering *cluster.Peering
	srv     *httptest.Server
	url     string
}

// newFleet builds n in-process daemons peered into one sharded-cache
// fleet. Listeners are created first (unstarted) so every node knows the
// full address list before its peering is built. mutateC / mutateS adjust
// a node's cluster and service options by index (nil: defaults). Default
// cluster settings are test-fast and deterministic: static membership (no
// heartbeats), millisecond backoff, hedging disabled — each test opts
// into exactly the paths it probes.
func newFleet(t *testing.T, n int, mutateC func(i int, o *cluster.Options), mutateS func(i int, o *Options)) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	urls := make([]string, n)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &fleetNode{srv: srv, url: "http://" + srv.Listener.Addr().String()}
		urls[i] = nodes[i].url
	}
	for i, nd := range nodes {
		co := cluster.Options{
			Self:         nd.url,
			Peers:        urls,
			HopTimeout:   2 * time.Second,
			Backoff:      time.Millisecond,
			HedgeAfter:   -1,
			PingInterval: -1,
		}
		if mutateC != nil {
			mutateC(i, &co)
		}
		p, err := cluster.New(co)
		if err != nil {
			t.Fatal(err)
		}
		so := Options{Defaults: testDefaults(), Workers: 1, CacheSize: 8, ModelCacheSize: 2,
			MaxConcurrent: 2, MaxQueue: 32, Cluster: p}
		if mutateS != nil {
			mutateS(i, &so)
		}
		nd.peering = p
		nd.svc = New(so)
		nd.srv.Config.Handler = nd.svc.Handler()
		nd.srv.Start()
		t.Cleanup(func() { nd.srv.Close(); nd.svc.Close(); p.Close() })
	}
	return nodes
}

// fleetSweeps sums spectrum computations across the fleet — the witness
// that a cross-node hit cost one sweep, not one per replica.
func fleetSweeps(nodes []*fleetNode) uint64 {
	var n uint64
	for _, nd := range nodes {
		n += nd.svc.Sweeps()
	}
	return n
}

// remoteOwnedBody finds a /v1/cl body whose key the node `from` does NOT
// own (rendezvous splits keys about evenly, so a few lmax values in, one
// must hash to the other side). skip lists keys already claimed by the
// test.
func remoteOwnedBody(t *testing.T, from *fleetNode, skip map[string]bool) (body, key string) {
	t.Helper()
	for lmax := 24; lmax < 64; lmax++ {
		k := ClRequest{LMaxCl: lmax}.Key(testDefaults())
		if skip[k] {
			continue
		}
		if _, remote := from.peering.Owner(k); remote {
			return fmt.Sprintf(`{"lmax_cl": %d}`, lmax), k
		}
	}
	t.Fatal("no remote-owned key among 40 candidates — rendezvous balance is broken")
	return "", ""
}

// canonResult normalizes a response payload for bitwise comparison:
// envelope formatting aside, two equal spectra must re-marshal to
// identical bytes (Go's float64 JSON encoding is shortest-round-trip
// exact, so this is a bitwise check on every coefficient).
func canonResult(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var v ClResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// referenceResult computes the same body on a cluster-free single node —
// the chaos matrix's ground truth.
func referenceResult(t *testing.T, ref *Service, body string) string {
	t.Helper()
	var req ClRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	v, _, err := ref.ComputeCl(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// forwards selects the peer forwards: heartbeats stay clean, so a plan on
// the forwards isolates one failure mode.
func forwards(req *http.Request) bool {
	return strings.HasPrefix(req.URL.Path, "/v1/peer/cl") ||
		strings.HasPrefix(req.URL.Path, "/v1/peer/pk")
}

// TestClusterCrossNodeHit is the acceptance criterion, for each product: a
// miss on node A for a key node B owns is served via one forward — the
// owner computes once for the whole fleet — bitwise identical to a
// single-node reference, and the repeat on A is an ordinary local cache
// hit.
func TestClusterCrossNodeHit(t *testing.T) {
	ref := testService()
	defer ref.Close()
	t.Run("cl", func(t *testing.T) {
		nodes := newFleet(t, 2, nil, nil)
		body, key := remoteOwnedBody(t, nodes[0], nil)
		checkCrossNodeHit(t, nodes, "/v1/cl", body, key, referenceResult(t, ref, body), canonResult)
	})
	t.Run("pk", func(t *testing.T) {
		nodes := newFleet(t, 2, nil, nil)
		for nk := 8; nk < 48; nk++ {
			req := PkRequest{NK: nk}
			key := req.Key(testDefaults())
			if _, remote := nodes[0].peering.Owner(key); !remote {
				continue
			}
			v, _, err := ref.ComputePk(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(v)
			checkCrossNodeHit(t, nodes, "/v1/pk", fmt.Sprintf(`{"nk": %d}`, nk), key, string(want), canonPkResult)
			return
		}
		t.Fatal("no remote-owned P(k) key among 40 candidates")
	})
}

// canonPkResult is canonResult for a P(k) payload.
func canonPkResult(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var v PkResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkCrossNodeHit posts body, whose key node 1 owns, to node 0 of a fresh
// two-node fleet twice: see TestClusterCrossNodeHit.
func checkCrossNodeHit(t *testing.T, nodes []*fleetNode, path, body, key, want string, canon func(*testing.T, json.RawMessage) string) {
	t.Helper()
	a := nodes[0]
	owner, _ := a.peering.Owner(key)

	// Cold request on the non-owner: forwarded, owner computes.
	resp, env := postJSON(t, a.srv.Client(), a.url+path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}
	if env.Source != SourcePeer {
		t.Fatalf("source %q, want %q", env.Source, SourcePeer)
	}
	if got := resp.Header.Get("X-Plinger-Peer"); got != owner {
		t.Fatalf("X-Plinger-Peer %q, want %q", got, owner)
	}
	if got := canon(t, env.Result); got != want {
		t.Fatal("peer-forwarded response differs bitwise from the single-node reference")
	}
	if n := fleetSweeps(nodes); n != 1 {
		t.Fatalf("fleet ran %d sweeps for one key, want 1", n)
	}

	// The forward left a local copy: the repeat is a zero-hop cache hit.
	_, env = postJSON(t, a.srv.Client(), a.url+path, body)
	if env.Source != SourceCache {
		t.Fatalf("repeat source %q, want %q", env.Source, SourceCache)
	}
	if got := canon(t, env.Result); got != want {
		t.Fatal("cached copy differs from the reference")
	}
	if n := fleetSweeps(nodes); n != 1 {
		t.Fatalf("repeat cost a sweep (fleet total %d)", n)
	}

	st := a.svc.Stats()
	if st.Cluster == nil || st.Cluster.PeerServed != 1 || st.Cluster.PeerRequests != 1 {
		t.Fatalf("cluster stats %+v", st.Cluster)
	}
}

// TestClusterChaosMatrix drives the degradation contract through every
// scripted failure mode — owner killed, hung, erroring 5xx, partitioned —
// and requires each response to stay 200 with a payload bitwise identical
// to a no-cluster single-node reference, inside the degraded wall bound
// (per-hop timeout x attempts + one local cold compute).
func TestClusterChaosMatrix(t *testing.T) {
	const hop = 150 * time.Millisecond
	scenarios := []struct {
		name string
		plan fault.Plan // on node 0's forwards
		kill bool       // close the owner's listener instead
	}{
		{name: "kill", kill: true},
		{name: "hang", plan: fault.Plan{Then: fault.Hang}},
		{name: "err5xx", plan: fault.Plan{Seed: 42, Fail: 1}},
		{name: "partition", plan: fault.Plan{Then: fault.Kill}},
	}
	ref := testService()
	defer ref.Close()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ft := fault.NewTransport(nil, sc.plan, forwards)
			nodes := newFleet(t, 2,
				func(i int, o *cluster.Options) {
					o.HopTimeout = hop
					if i == 0 {
						o.Transport = ft
					}
				}, nil)
			a, b := nodes[0], nodes[1]
			if sc.kill {
				b.srv.Close()
			}
			body, _ := remoteOwnedBody(t, a, nil)
			want := referenceResult(t, ref, body)

			start := time.Now()
			resp, env := postJSON(t, a.srv.Client(), a.url+"/v1/cl", body)
			elapsed := time.Since(start)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("degraded request: status %d", resp.StatusCode)
			}
			if env.Source != SourceCompute {
				t.Fatalf("degraded source %q, want %q (local compute)", env.Source, SourceCompute)
			}
			if got := canonResult(t, env.Result); got != want {
				t.Fatal("degraded response differs bitwise from the single-node reference")
			}
			// Wall bound: two hop attempts + backoff + one cold local sweep,
			// with CI margin. A blown bound means degrade-to-local waited on
			// something it must not wait on.
			if wall := 2*hop + 2*time.Second; elapsed > wall {
				t.Fatalf("degraded request took %s, wall bound %s", elapsed, wall)
			}
			st := a.svc.Stats()
			if st.Cluster == nil || st.Cluster.LocalFallback == 0 {
				t.Fatalf("degrade not recorded: %+v", st.Cluster)
			}
			// The plan's own count: the injected cell's fault fired on the
			// forwards, the killed owner's cell saw forwards and no fault.
			fs := ft.Stats()
			if fired := fs.Hung + fs.Fails + fs.Killed; fs.Ops == 0 || (fired > 0) == sc.kill {
				t.Fatalf("plan stats %+v on the %s cell", fs, sc.name)
			}
		})
	}
}

// TestClusterFarmChaosRecoversBitwise composes the two fault layers: node 0
// of a two-node fleet computes over a farm of two workers, one worker's
// connection dies mid-sweep ({After: 8, Then: Kill} on its writes), and the
// owner of the requested key is partitioned away ({Then: Kill} on node 0's
// forwards). The request must still answer 200 from a local compute,
// bitwise equal to a single-node pool, with both plans' faults fired and
// the farm's loss on the fault ledger.
func TestClusterFarmChaosRecoversBitwise(t *testing.T) {
	ref := testService()
	defer ref.Close()
	var conn *fault.Conn
	// No heartbeat before the sweep: a pong is a write, and the plan's
	// eight writes must reach into the sweep.
	fl := testFarm(t, 2, farm.Options{MinWorkers: 1, Heartbeat: time.Minute}, func(i int, c net.Conn) net.Conn {
		if i == 1 {
			conn = fault.WrapConn(c, fault.Plan{After: 8, Then: fault.Kill})
			return conn
		}
		return c
	})
	peer := fault.NewTransport(nil, fault.Plan{Then: fault.Kill}, forwards)
	nodes := newFleet(t, 2,
		func(i int, o *cluster.Options) {
			o.HopTimeout = 150 * time.Millisecond
			if i == 0 {
				o.Transport = peer
			}
		},
		func(i int, o *Options) {
			if i == 0 {
				o.Farm = fl
			}
		})
	a := nodes[0]
	body, _ := remoteOwnedBody(t, a, nil)
	want := referenceResult(t, ref, body)
	failures := obs.Default.Counter("plinger_fault_worker_failures_total", "", "")
	before := failures.Value()

	resp, env := postJSON(t, a.srv.Client(), a.url+"/v1/cl", body)
	if resp.StatusCode != http.StatusOK || env.Source != SourceCompute {
		t.Fatalf("status %d, source %q: want 200 from a local compute", resp.StatusCode, env.Source)
	}
	if got := canonResult(t, env.Result); got != want {
		t.Fatal("response differs bitwise from the single-node pool reference")
	}
	if fs := peer.Stats(); fs.Killed == 0 {
		t.Fatalf("peer plan never fired: %+v", fs)
	}
	if fs := conn.Stats(); fs.Ops < 8 || fs.Killed == 0 {
		t.Fatalf("worker connection plan never fired: %+v", fs)
	}
	if failures.Value() == before {
		t.Fatal("the farm recorded no worker failure")
	}
}

// TestClusterOwnerDeadServesResident: with the key's owner wedged and its
// breaker open, a key this node holds is an ordinary hit. It makes no
// forward, runs no sweep and does not wait out the peer timeout.
func TestClusterOwnerDeadServesResident(t *testing.T) {
	// Generous hop so the warm-up forward survives a race-detector-slowed
	// cold compute on the owner; the hit must still beat it by orders of
	// magnitude.
	const hop = 2 * time.Second
	var hangOn atomic.Bool
	ft := fault.NewTransport(nil, fault.Plan{Then: fault.Hang}, func(req *http.Request) bool {
		return hangOn.Load() && strings.HasPrefix(req.URL.Path, "/v1/peer/")
	})
	nodes := newFleet(t, 2,
		func(i int, o *cluster.Options) {
			o.HopTimeout = hop
			o.Retries = -1         // one attempt per fetch
			o.BreakerThreshold = 1 // first failure opens the circuit
			o.BreakerCooldown = time.Hour
			if i == 0 {
				o.Transport = ft
			}
		}, nil)
	a := nodes[0]

	// Warm: a forwarded request leaves a copy in A's cache.
	body1, key1 := remoteOwnedBody(t, a, nil)
	_, env := postJSON(t, a.srv.Client(), a.url+"/v1/cl", body1)
	if env.Source != SourcePeer {
		t.Fatalf("warm source %q, want peer", env.Source)
	}
	want := canonResult(t, env.Result)

	// The owner wedges. Open the breaker with a cold key: its fetch hangs
	// for one full hop timeout, degrades to local compute, and trips the
	// threshold-1 breaker.
	hangOn.Store(true)
	body2, _ := remoteOwnedBody(t, a, map[string]bool{key1: true})
	_, env = postJSON(t, a.srv.Client(), a.url+"/v1/cl", body2)
	if env.Source != SourceCompute {
		t.Fatalf("breaker-opening request source %q, want compute", env.Source)
	}
	if st := a.svc.Stats(); st.Cluster.LocalFallback == 0 {
		t.Fatal("hang did not degrade to local")
	}
	sweeps := a.svc.Sweeps()

	start := time.Now()
	resp, env := postJSON(t, a.srv.Client(), a.url+"/v1/cl", body1)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || env.Source != SourceCache {
		t.Fatalf("resident key under a dead owner: status %d, source %q, want 200 from cache", resp.StatusCode, env.Source)
	}
	if got := canonResult(t, env.Result); got != want {
		t.Fatal("the hit differs from the owner's answer")
	}
	if elapsed >= hop {
		t.Fatalf("hit took %s — waited out the %s peer timeout", elapsed, hop)
	}
	if got := a.svc.Sweeps(); got != sweeps {
		t.Fatalf("sweeps %d after the hit, want %d", got, sweeps)
	}
	// One forward hung and opened the breaker; the hit sent none.
	if st := ft.Stats(); st.Ops != 1 || st.Hung != 1 {
		t.Fatalf("plan stats %+v, want the one breaker-opening forward hung", st)
	}
}

// TestClusterWireCannotFillCache: no request from the wire writes a
// product into the response cache under a key of its choosing. The old
// back-fill endpoint is gone (404), so after a well-formed C_l product is
// posted there under the default key, the default request still computes,
// and its result is bitwise a fresh service's.
func TestClusterWireCannotFillCache(t *testing.T) {
	s := testService()
	defer s.Close()
	h := s.Handler()
	forged, _ := json.Marshal(&ClResponse{L: []int{2, 3}, Cl: []float64{1, 2}, BandPowerUK: []float64{3, 4}})
	offer := fmt.Sprintf(`{"key": %q, "kind": "cl", "result": %s}`, ClRequest{}.Key(testDefaults()), forged)
	if rec := serveRecorded(h, "/v1/peer/offer", offer); rec.Code != http.StatusNotFound {
		t.Fatalf("/v1/peer/offer: status %d, want 404", rec.Code)
	}
	result := func(h http.Handler) (Source, string) {
		t.Helper()
		rec := serveRecorded(h, "/v1/cl", `{}`)
		var env wireEnvelope
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &env) != nil {
			t.Fatalf("/v1/cl {}: status %d: %s", rec.Code, rec.Body)
		}
		return env.Source, string(env.Result)
	}
	src, got := result(h)
	if src != SourceCompute {
		t.Fatalf("/v1/cl {} after the post: source %q, want %q", src, SourceCompute)
	}
	fresh := testService()
	defer fresh.Close()
	if _, want := result(fresh.Handler()); got != want {
		t.Fatal("/v1/cl {} after the post differs from a fresh service's result")
	}
}

// TestClusterSoakLeavesNoGoroutines drives a hedging two-node fleet, some of
// whose forwards hang, through a mix of local hits, forwarded misses,
// coalesced repeats, deadline 504s and 400s, and requires that once every
// service, peering and server is closed, nothing it started still runs.
// It counts goroutines only: the heap is too noisy to bound on a small box.
func TestClusterSoakLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	codes := map[int]int{}
	t.Run("load", func(t *testing.T) {
		// A dropped forward goes unanswered until its hop times out.
		ft := fault.NewTransport(nil, fault.Plan{Seed: 5, Drop: 0.3}, forwards)
		nodes := newFleet(t, 2,
			func(i int, o *cluster.Options) {
				o.HopTimeout = 300 * time.Millisecond
				o.HedgeAfter = 50 * time.Millisecond
				if i == 0 {
					o.Transport = ft
				}
			},
			func(i int, o *Options) { o.CacheSize = 64 })
		a := nodes[0]
		var bodies []string
		for lmax := 24; lmax < 36; lmax++ {
			bodies = append(bodies, fmt.Sprintf(`{"lmax_cl": %d}`, lmax))
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		post := func(nd *fleetNode, body string) {
			defer wg.Done()
			resp, err := nd.srv.Client().Post(nd.url+"/v1/cl", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
		}
		for round := range 5 {
			for i, body := range bodies {
				// Every body from node 0 (hits, forwards, local computes),
				// three at once in the first round (coalesced repeats), and
				// node 1 too, so either node owns some of the load.
				n := 1
				if round == 0 {
					n = 3
				}
				for range n {
					wg.Add(1)
					go post(a, body)
				}
				wg.Add(3)
				go post(nodes[1], body)
				go post(a, fmt.Sprintf(`{"lmax_cl": %d, "deadline_ms": 1, "qcobe_uk": %d}`, 24+i, 10+round))
				go post(a, `{"nk": -1}`)
			}
			wg.Wait()
		}
		if st := a.svc.Stats().Cluster; ft.Stats().Drops == 0 || st.PeerServed == 0 || st.Hedged == 0 {
			t.Fatalf("plan stats %+v, cluster stats %+v: want dropped forwards, peer answers and hedges", ft.Stats(), st)
		}
	})
	if codes[http.StatusOK] == 0 || codes[http.StatusBadRequest] == 0 || codes[http.StatusGatewayTimeout] == 0 {
		t.Fatalf("status counts %v, want 200s, 400s and 504s", codes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5 s after the fleet closed, %d before it started:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterHedgedSlowPeer: a slow (not dead) owner is raced against a
// local compute after the hedge delay; the caller gets an answer far
// inside the hop timeout and the hedge is counted.
func TestClusterHedgedSlowPeer(t *testing.T) {
	const hop = 10 * time.Second // deliberately huge: the hedge must win, not the timeout
	ft := fault.NewTransport(nil, fault.Plan{Then: fault.Hang}, forwards)
	nodes := newFleet(t, 2,
		func(i int, o *cluster.Options) {
			o.HopTimeout = hop
			o.Retries = -1
			o.HedgeAfter = 50 * time.Millisecond
			if i == 0 {
				o.Transport = ft
			}
		}, nil)
	a := nodes[0]
	body, _ := remoteOwnedBody(t, a, nil)

	start := time.Now()
	resp, env := postJSON(t, a.srv.Client(), a.url+"/v1/cl", body)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request status %d", resp.StatusCode)
	}
	if env.Source != SourceCompute {
		t.Fatalf("hedged source %q, want compute (local won the race)", env.Source)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hedged request took %s — waited on the wedged owner instead of racing it", elapsed)
	}
	if st := a.svc.Stats(); st.Cluster.Hedged == 0 {
		t.Fatal("hedge not counted")
	}
	if st := ft.Stats(); st.Hung != 1 {
		t.Fatalf("plan stats %+v, want the one forward hung", st)
	}
}

// TestRetryAfterDerived pins the satellite behaviour: the Retry-After
// hint on 503/504 is derived from queue depth and observed sweep cost
// (seconds, clamped [1,30]) instead of a bare constant.
func TestRetryAfterDerived(t *testing.T) {
	s := testService()
	defer s.Close()
	if got := s.retryAfter(); got != "1" {
		t.Fatalf("idle retryAfter %q, want \"1\"", got)
	}
	// Pretend history: 4s average sweep, 3 waiting on 2 slots -> the
	// retrier is ~2.5 batches out -> ceil(2.5 * 4) = 10s.
	s.misses.Inc()
	s.missNs.Store(4e9)
	for i := 0; i < 2; i++ {
		if err := s.adm.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer s.adm.release()
	}
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		go func() {
			if s.adm.acquire(context.Background()) == nil {
				<-release
				s.adm.release()
			}
		}()
	}
	defer close(release)
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.Stats().Waiting < 3 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.retryAfter(); got != "10" {
		t.Fatalf("retryAfter %q with 3 waiting x 4s sweeps on 2 slots, want \"10\"", got)
	}
	// Clamp: absurd sweep cost must not push clients out past 30s.
	s.missNs.Store(1e12)
	if got := s.retryAfter(); got != "30" {
		t.Fatalf("retryAfter %q, want clamped \"30\"", got)
	}
}
