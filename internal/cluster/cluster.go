// Package cluster shards the daemon's response cache across a fleet of
// plingerd replicas: every node still computes everything (correctness
// never depends on the fleet), but each wire-stable cache key has exactly
// one *owner* in the peer ring, so the Planck-style parameter-scan
// workload pays one cold sweep per fleet instead of one per replica.
//
// The design is robustness-first — the peering layer must never make a
// request worse than single-node local compute:
//
//   - ring.go — rendezvous (highest-random-weight) hashing over the
//     membership view. Rendezvous needs no virtual-node tuning, balances
//     perfectly at small fleet sizes, and has the minimal-disruption
//     property consistent hashing is usually chosen for: when a member
//     leaves, only the keys it owned move, every other key keeps its
//     owner. Joins and leaves therefore re-shard only *ownership*, never
//     correctness — any node can compute any key.
//   - breaker.go — a per-peer circuit breaker: consecutive forward
//     failures open the circuit, a cooldown later one half-open probe may
//     try again. An open breaker fails peer fetches instantly, so a dead
//     or misbehaving owner costs microseconds, not timeouts.
//   - health.go — heartbeat membership: a monitor goroutine probes every
//     peer's /v1/peer/ping on an interval; a miss budget marks it dead
//     (excluded from the ring), a later success re-admits it. The static
//     -peers list is the membership universe; liveness within it is
//     gossip-free and needs no coordination.
//
// The serving layer (internal/serve) consults Owner per cache miss,
// fetches remote-owned keys over the small peer HTTP protocol via Fetch
// (strict per-hop timeouts, bounded retry with jittered backoff), and on
// *any* failure — dead member, open breaker, exhausted retries — degrades
// to local compute and asynchronously back-fills the owner via Offer. The
// fleet's worst case is one peer timeout ahead of today's single-node
// behavior; its best case is a fleet-wide shared cache.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"plinger/internal/obs"
)

// ErrPeerDown is returned by Fetch and Offer when the target peer is not
// worth a network round-trip right now: its membership entry is dead or
// its circuit breaker is open. Callers treat it exactly like a failed
// fetch — degrade to local compute — but it costs microseconds instead of
// a timeout.
var ErrPeerDown = errors.New("cluster: peer unavailable")

// maxPeerResponse bounds how much of a peer response body Fetch will read
// (a C_l or P(k) envelope is a few kilobytes; 32 MiB is paranoia).
const maxPeerResponse = 32 << 20

// Options configures a Peering.
type Options struct {
	// Self is this node's advertised base URL — the spelling under which
	// it appears in every other replica's Peers list. Required when Peers
	// is non-empty.
	Self string
	// Peers are the other replicas' base URLs. Self is filtered out, so
	// operators can pass one identical fleet list to every node.
	Peers []string
	// Transport performs the peer HTTP requests (nil: http.DefaultTransport).
	// The chaos tests put an internal/fault plan here (fault.NewTransport).
	Transport http.RoundTripper
	// HopTimeout bounds every single peer request — forward attempt, retry
	// attempt, or back-fill offer (<= 0: 2s). This is the "peer timeout" of
	// the degradation contract: a hung owner costs at most
	// HopTimeout*(1+Retries) before local compute takes over.
	HopTimeout time.Duration
	// Retries is how many extra forward attempts follow a retriable
	// failure (transport error or 5xx); 0 picks the default 1, negative
	// disables retries.
	Retries int
	// Backoff is the base of the jittered exponential backoff between
	// retry attempts (<= 0: 25ms).
	Backoff time.Duration
	// HedgeAfter is how long the serving layer lets a forward run before
	// hedging it with a local compute (0: 500ms default; negative
	// disables hedging). Exposed here so fleet configuration lives in one
	// place; the race itself happens in serve, which owns local compute.
	HedgeAfter time.Duration
	// BreakerThreshold consecutive forward failures open a peer's circuit
	// (<= 0: 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects instantly before
	// allowing one half-open probe (<= 0: 5s).
	BreakerCooldown time.Duration
	// PingInterval spaces the membership heartbeat probes (0: 1s;
	// negative disables the monitor — peers then stay optimistically
	// alive and only breakers gate forwarding).
	PingInterval time.Duration
	// Logf receives membership transitions and breaker trips (nil: silent).
	Logf func(format string, args ...any)

	// Membership settings the tests vary (zero: the defaults).
	// pingTimeout bounds one heartbeat probe (<= 0: 500ms).
	pingTimeout time.Duration
	// pingMisses consecutive failed probes mark a peer dead (<= 0: 3).
	pingMisses int
}

func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = http.DefaultTransport
	}
	if o.HopTimeout <= 0 {
		o.HopTimeout = 2 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 1
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 500 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.PingInterval == 0 {
		o.PingInterval = time.Second
	}
	if o.pingTimeout <= 0 {
		o.pingTimeout = 500 * time.Millisecond
	}
	if o.pingMisses <= 0 {
		o.pingMisses = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// peer is one remote member of the ring. All mutable state is guarded by
// Peering.mu; the breaker carries its own lock so Fetch can consult it
// without holding the membership lock across a network call.
type peer struct {
	addr     string
	breaker  *breaker
	alive    bool
	misses   int
	lastSeen time.Time
	forwards uint64
	failures uint64
}

// Peering is one node's view of the replica fleet: the membership list,
// per-peer breakers and the forwarding client. Safe for concurrent use;
// create with New and Close when done (Close stops the heartbeat monitor).
type Peering struct {
	opts   Options
	self   string
	client *http.Client
	reg    *obs.Registry

	mu    sync.RWMutex
	peers map[string]*peer
	order []string // stable peer iteration order

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	forwards     *obs.Counter
	forwardErrs  *obs.Counter
	backfills    *obs.Counter
	backfillErrs *obs.Counter
	probes       *obs.Counter
	probeMisses  *obs.Counter
	rejoins      *obs.Counter
}

// New builds a Peering over the advertised membership. URLs are
// normalized (scheme defaulted to http, trailing slash stripped) and
// deduplicated; Self is removed from the peer list so one fleet list can
// be passed to every node verbatim.
func New(opts Options) (*Peering, error) {
	o := opts.withDefaults()
	self, err := normalizeAddr(o.Self)
	if err != nil && len(o.Peers) > 0 {
		return nil, fmt.Errorf("cluster: bad self address %q: %w", o.Self, err)
	}
	p := &Peering{
		opts:   o,
		self:   self,
		client: &http.Client{Transport: o.Transport},
		reg:    obs.NewRegistry(),
		peers:  make(map[string]*peer),
		stop:   make(chan struct{}),
	}
	for _, raw := range o.Peers {
		addr, err := normalizeAddr(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad peer address %q: %w", raw, err)
		}
		if addr == self {
			continue
		}
		if _, ok := p.peers[addr]; ok {
			continue
		}
		p.peers[addr] = &peer{
			addr:    addr,
			breaker: newBreaker(o.BreakerThreshold, o.BreakerCooldown),
			// Optimistically alive: the first requests after startup may
			// forward immediately; a dead peer costs one breaker trip.
			alive:    true,
			lastSeen: time.Now(),
		}
		p.order = append(p.order, addr)
	}
	sort.Strings(p.order)

	r := p.reg
	p.forwards = r.Counter("plinger_cluster_forwards_total", `result="ok"`, "peer cache fetches answered by the owner")
	p.forwardErrs = r.Counter("plinger_cluster_forwards_total", `result="error"`, "peer cache fetch attempts that failed (timeouts, 5xx, transport errors)")
	p.backfills = r.Counter("plinger_cluster_backfills_total", `result="ok"`, "locally computed responses pushed to their owning peer")
	p.backfillErrs = r.Counter("plinger_cluster_backfills_total", `result="error"`, "back-fill offers that failed or were skipped (peer down)")
	p.probes = r.Counter("plinger_cluster_probes_total", "", "membership heartbeat probes sent")
	p.probeMisses = r.Counter("plinger_cluster_probe_misses_total", "", "heartbeat probes that failed")
	p.rejoins = r.Counter("plinger_cluster_rejoins_total", "", "peers re-admitted to the ring after being marked dead")
	r.GaugeFunc("plinger_cluster_peers", `state="alive"`, "remote peers currently in the ring", func() float64 {
		return float64(len(p.alivePeers()))
	})
	r.GaugeFunc("plinger_cluster_peers", `state="dead"`, "remote peers currently excluded from the ring", func() float64 {
		p.mu.RLock()
		defer p.mu.RUnlock()
		dead := 0
		for _, pr := range p.peers {
			if !pr.alive {
				dead++
			}
		}
		return float64(dead)
	})
	for _, addr := range p.order {
		pr := p.peers[addr]
		r.GaugeFunc("plinger_cluster_breaker_state", fmt.Sprintf("peer=%q", addr),
			"per-peer circuit breaker: 0 closed, 1 half-open, 2 open",
			func() float64 { return float64(pr.breaker.state()) })
	}

	if len(p.peers) > 0 && o.PingInterval > 0 {
		p.wg.Add(1)
		go p.monitor()
	}
	return p, nil
}

// Close stops the membership monitor. It never touches in-flight fetches.
func (p *Peering) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Self returns the node's normalized advertised address.
func (p *Peering) Self() string { return p.self }

// Registry exposes the peering metrics for the daemon's /metrics scrape.
func (p *Peering) Registry() *obs.Registry { return p.reg }

// HedgeAfter is the configured hedge delay for the serving layer
// (non-positive: hedging disabled).
func (p *Peering) HedgeAfter() time.Duration {
	if p.opts.HedgeAfter < 0 {
		return 0
	}
	return p.opts.HedgeAfter
}

// alivePeers snapshots the remote members currently in the ring.
func (p *Peering) alivePeers() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.order))
	for _, addr := range p.order {
		if p.peers[addr].alive {
			out = append(out, addr)
		}
	}
	return out
}

// Members returns the current ring membership: alive peers plus self,
// sorted.
func (p *Peering) Members() []string {
	m := append(p.alivePeers(), p.self)
	sort.Strings(m)
	return m
}

// Owner resolves a cache key to its owning member over the current
// membership view; remote is false when this node owns the key (or is the
// only member left). Different nodes may transiently disagree during a
// membership change — both then compute locally, which is correct, just
// one sweep more expensive.
func (p *Peering) Owner(key string) (addr string, remote bool) {
	owner := rendezvousOwner(key, p.Members())
	return owner, owner != p.self
}

// Alive reports the membership view of one peer.
func (p *Peering) Alive(addr string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	pr, ok := p.peers[addr]
	return ok && pr.alive
}

// Fetch asks a peer for a response: POST body to addr+path with a strict
// per-hop timeout per attempt and a bounded, jitter-backed retry on
// retriable failures (transport errors and 5xx). A dead member or an open
// breaker fails instantly with ErrPeerDown. Success feeds the membership
// view (the peer is clearly alive) and the breaker; every failed attempt
// feeds the breaker.
func (p *Peering) Fetch(ctx context.Context, addr, path string, body []byte) ([]byte, error) {
	pr := p.lookup(addr)
	if pr == nil {
		return nil, fmt.Errorf("cluster: unknown peer %s", addr)
	}
	var lastErr error
	for attempt := 0; attempt <= p.opts.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoffDelay(p.opts.Backoff, attempt)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// The gate is re-checked before every attempt: a concurrent
		// failure storm may have opened the breaker, or the monitor may
		// have declared the peer dead, between attempts.
		if !p.admit(pr) {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, ErrPeerDown
		}
		b, retriable, err := p.do(ctx, addr+path, body)
		if err == nil {
			p.succeed(pr)
			p.forwards.Inc()
			return b, nil
		}
		p.fail(pr)
		p.forwardErrs.Inc()
		lastErr = err
		if !retriable {
			break
		}
	}
	return nil, lastErr
}

// Offer pushes a locally computed response to its owning peer: one
// attempt, per-hop timeout, best effort. The serving layer calls it
// asynchronously after a degraded local compute so the ring's canonical
// copy lands where future requests will look for it.
func (p *Peering) Offer(addr, path string, body []byte) error {
	pr := p.lookup(addr)
	if pr == nil {
		return fmt.Errorf("cluster: unknown peer %s", addr)
	}
	if !p.admit(pr) {
		p.backfillErrs.Inc()
		return ErrPeerDown
	}
	_, _, err := p.do(context.Background(), addr+path, body)
	if err != nil {
		p.fail(pr)
		p.backfillErrs.Inc()
		return err
	}
	p.succeed(pr)
	p.backfills.Inc()
	return nil
}

// do performs one bounded HTTP attempt. retriable distinguishes failures
// worth a backoff-retry (transport errors, 5xx — the peer may recover)
// from ones that will not improve (4xx: protocol or version skew).
func (p *Peering) do(ctx context.Context, url string, body []byte) (b []byte, retriable bool, err error) {
	hctx, cancel := context.WithTimeout(ctx, p.opts.HopTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	b, err = io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode >= 500, fmt.Errorf("cluster: %s: status %d", url, resp.StatusCode)
	}
	return b, false, nil
}

// lookup finds a peer's membership entry.
func (p *Peering) lookup(addr string) *peer {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.peers[addr]
}

// admit decides whether a network attempt against the peer is worthwhile:
// the membership view must hold it alive and the breaker must allow it.
func (p *Peering) admit(pr *peer) bool {
	p.mu.RLock()
	alive := pr.alive
	p.mu.RUnlock()
	return alive && pr.breaker.allow(time.Now())
}

// succeed records a successful round-trip: the breaker closes and the
// membership view learns the peer is alive regardless of probe history.
func (p *Peering) succeed(pr *peer) {
	pr.breaker.success()
	p.mu.Lock()
	if !pr.alive {
		p.rejoins.Inc()
		p.opts.Logf("cluster: peer %s back (forward succeeded)", pr.addr)
	}
	pr.alive = true
	pr.misses = 0
	pr.lastSeen = time.Now()
	pr.forwards++
	p.mu.Unlock()
}

// fail records a failed attempt against the breaker and the roster.
func (p *Peering) fail(pr *peer) {
	opened := pr.breaker.failure(time.Now())
	p.mu.Lock()
	pr.failures++
	p.mu.Unlock()
	if opened {
		p.opts.Logf("cluster: breaker open for peer %s (cooldown %s)", pr.addr, p.opts.BreakerCooldown)
	}
}

// normalizeAddr canonicalizes a member URL: scheme defaulted to http://,
// trailing slashes stripped, host required. The normalized string is the
// member's ring identity, so every node must spell the fleet identically
// up to these cosmetics.
func normalizeAddr(raw string) (string, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return "", errors.New("empty address")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("unsupported scheme %q", u.Scheme)
	}
	if u.Host == "" {
		return "", errors.New("missing host")
	}
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return u.String(), nil
}

// backoffDelay is the jittered exponential backoff before retry attempt
// n (n >= 1): base*2^(n-1) capped at one second, drawn uniformly from
// [half, full) so synchronized retry storms decorrelate.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > time.Second {
		d = time.Second
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// PeerStatus is one roster row of Status.
type PeerStatus struct {
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	// Breaker is "closed", "half-open" or "open".
	Breaker string `json:"breaker"`
	// Forwards and Failures count this node's round-trips against the peer.
	Forwards uint64 `json:"forwards"`
	Failures uint64 `json:"failures"`
	// LastSeenAgoS is how long ago the peer last answered anything.
	LastSeenAgoS float64 `json:"last_seen_ago_s"`
}

// Status is the /v1/stats view of the peering layer.
type Status struct {
	Self string `json:"self"`
	// Members is the current ring size (alive peers plus self).
	Members       int          `json:"members"`
	Peers         []PeerStatus `json:"peers"`
	Forwards      uint64       `json:"forwards"`
	ForwardErrors uint64       `json:"forward_errors"`
	Backfills     uint64       `json:"backfills"`
	BackfillErrs  uint64       `json:"backfill_errors"`
	Probes        uint64       `json:"probes"`
	ProbeMisses   uint64       `json:"probe_misses"`
	Rejoins       uint64       `json:"rejoins"`
}

// Status snapshots the roster and the peering counters.
func (p *Peering) Status() Status {
	st := Status{
		Self:          p.self,
		Members:       len(p.Members()),
		Forwards:      p.forwards.Value(),
		ForwardErrors: p.forwardErrs.Value(),
		Backfills:     p.backfills.Value(),
		BackfillErrs:  p.backfillErrs.Value(),
		Probes:        p.probes.Value(),
		ProbeMisses:   p.probeMisses.Value(),
		Rejoins:       p.rejoins.Value(),
	}
	now := time.Now()
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, addr := range p.order {
		pr := p.peers[addr]
		st.Peers = append(st.Peers, PeerStatus{
			Addr:         pr.addr,
			Alive:        pr.alive,
			Breaker:      breakerStateName(pr.breaker.state()),
			Forwards:     pr.forwards,
			Failures:     pr.failures,
			LastSeenAgoS: now.Sub(pr.lastSeen).Seconds(),
		})
	}
	return st
}
