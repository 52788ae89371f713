package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"plinger"
	"plinger/internal/cluster"
	"plinger/internal/dispatch"
	"plinger/internal/farm"
	"plinger/internal/obs"
	"plinger/internal/specfunc"
	"plinger/internal/spectra"
)

// Defaults are the per-request fallbacks the daemon resolves zero-valued
// request fields against. They are part of key resolution: a request
// spelled with zeros and one spelled with the explicit defaults share a
// cache entry.
type Defaults struct {
	// LMaxCl, NK and KRefine configure the default C_l product.
	LMaxCl  int `json:"lmax_cl"`
	NK      int `json:"nk"`
	KRefine int `json:"krefine"`
	// PkNK is the default matter-power grid size.
	PkNK int `json:"pk_nk"`
	// LSpline and KBatch are the fast engine's projection and evolution
	// batching knobs, applied to non-exact requests only. Both stay
	// inside the engine's 1e-3 relative C_l contract, so — like workers
	// and transport — they are execution configuration and never enter
	// cache keys: toggling them re-serves cached spectra.
	LSpline bool `json:"lspline"`
	KBatch  int  `json:"kbatch"`
}

// DefaultDefaults is the daemon's stock configuration: the PR 2 benchmark
// resolution served by the full fast engine, spline-in-l projection and
// lockstep mode batching included.
func DefaultDefaults() Defaults {
	return Defaults{LMaxCl: 150, NK: 130, KRefine: 6, PkNK: 40, LSpline: true, KBatch: 4}
}

// Options configures a Service.
type Options struct {
	// Defaults resolves zero-valued request fields (zero: DefaultDefaults).
	Defaults Defaults
	// Workers sizes the daemon's one shared dispatch pool, which every
	// model's sweeps run on (<= 0: GOMAXPROCS).
	Workers int
	// Farm, when non-nil, routes every model's sweeps across the multi-host
	// worker fleet instead of the shared pool. The supervisor is
	// attached, not owned: the service never closes it (the daemon that
	// started the farm drains it on shutdown), and one supervisor serves
	// every model in the registry — workers cache models per specification.
	Farm *farm.Supervisor
	// Cluster, when non-nil, shards the response cache across a replica
	// fleet: every cache key has one owner in the peer ring, a miss whose
	// key another member owns is fetched over the peer protocol, and any
	// peer failure degrades to local serving (see internal/cluster and
	// peer.go). Attached, not owned: the daemon that built the peering
	// closes it.
	Cluster *cluster.Peering
	// CacheSize bounds the response LRU in entries (<= 0: 1024).
	CacheSize int
	// ModelCacheSize bounds the model registry (<= 0: 4).
	ModelCacheSize int
	// MaxConcurrent bounds simultaneously computing sweeps (<= 0: 2).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a compute slot; beyond it the
	// service answers ErrBusy/503 (< 0: 0; 0 picks 64).
	MaxQueue int
	// Logger receives structured serving logs (one line per HTTP request,
	// slow-request warnings). Nil disables logging.
	Logger *slog.Logger
	// SlowRequest is the latency above which a request is logged at WARN
	// with its sweep trace id (<= 0: 2s).
	SlowRequest time.Duration
}

// traceRing bounds the /v1/trace ring of recent sweep traces.
const traceRing = 64

func (o Options) withDefaults() Options {
	if o.Defaults == (Defaults{}) {
		o.Defaults = DefaultDefaults()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.ModelCacheSize <= 0 {
		o.ModelCacheSize = 4
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.SlowRequest <= 0 {
		o.SlowRequest = 2 * time.Second
	}
	return o
}

// ErrDeadline is returned when a request's compute deadline expires before
// the sweep finishes. The computation
// itself keeps running and fills the cache for the next caller; handlers
// map the error to 504.
var ErrDeadline = errors.New("serve: compute deadline exceeded")

// Service is the spectrum server: cached, coalesced, admission-bounded
// C_l and P(k) computation over long-lived models and one dispatch pool.
// Safe for concurrent use; create with New and Close when done.
type Service struct {
	opts    Options
	cache   *lru
	models  *modelCache
	pool    *dispatch.SharedPool // nil when sweeps run on a farm
	flights flightGroup
	adm     *admission
	cluster *cluster.Peering
	started time.Time

	// reg is the service's own metrics registry. Counters are per Service
	// (not process-wide) so tests and multiple services never share counts;
	// the /metrics endpoint scrapes it together with obs.Default, where the
	// engine-level series (sweeps, fault ledger, runtime) live.
	reg    *obs.Registry
	traces *obs.TraceLog
	logger *slog.Logger
	reqSeq atomic.Uint64

	requests  *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	rejected  *obs.Counter
	errCount  *obs.Counter
	sweeps    *obs.Counter
	derived   *obs.Counter

	timeouts *obs.Counter

	// Fleet-side counters (see peer.go); registered even without a
	// cluster so the metric names are stable across deployments.
	peerRequests  *obs.Counter
	peerServed    *obs.Counter
	hedged        *obs.Counter
	localFallback *obs.Counter

	// cl and pk are the product table.
	cl, pk    kind
	queueWait *obs.Histogram

	hitNs  atomic.Int64
	missNs atomic.Int64
}

// New builds a Service.
func New(opts Options) *Service {
	o := opts.withDefaults()
	s := &Service{
		opts:    o,
		cache:   newLRU(o.CacheSize),
		adm:     newAdmission(o.MaxConcurrent, o.MaxQueue),
		cluster: o.Cluster,
		started: time.Now(),
		reg:     obs.NewRegistry(),
		traces:  obs.NewTraceLog(traceRing),
		logger:  o.Logger,
	}
	// One executor serves every model: the farm when there is one, else
	// the service's own pool.
	var exec dispatch.Executor
	if o.Farm != nil {
		exec = o.Farm
	} else {
		s.pool = dispatch.NewSharedPool(o.Workers)
		exec = s.pool
	}
	s.models = newModelCache(o.ModelCacheSize, exec)
	r := s.reg
	s.requests = r.Counter("plinger_serve_requests_total", "", "requests accepted by the compute API")
	s.hits = r.Counter("plinger_serve_cache_hits_total", "", "requests answered from the response cache")
	s.misses = r.Counter("plinger_serve_cache_misses_total", "", "requests that computed a fresh response")
	s.coalesced = r.Counter("plinger_serve_coalesced_total", "", "requests attached to another request's sweep")
	s.rejected = r.Counter("plinger_serve_rejected_total", "", "requests rejected by the admission queue")
	s.errCount = r.Counter("plinger_serve_errors_total", "", "failed requests (validation and compute)")
	s.sweeps = r.Counter("plinger_serve_sweeps_total", "", "spectrum sweeps completed (derived products run none)")
	s.derived = r.Counter("plinger_serve_derived_total", "", "normalized C_l products rescaled from their base product instead of swept")
	s.timeouts = r.Counter("plinger_serve_timeouts_total", "", "requests whose deadline expired before the sweep finished")
	s.peerRequests = r.Counter("plinger_cluster_peer_requests_total", "", "cache misses whose key a remote peer owns")
	s.peerServed = r.Counter("plinger_cluster_peer_served_total", "", "requests answered by a peer forward")
	s.hedged = r.Counter("plinger_cluster_hedged_total", "", "slow peer forwards raced against a local compute")
	s.localFallback = r.Counter("plinger_cluster_local_fallback_total", "", "peer failures degraded to local serving")
	s.cl = newKind(r, "cl", decodeResult[ClResponse])
	s.pk = newKind(r, "pk", decodeResult[PkResponse])
	s.queueWait = r.Histogram("plinger_serve_queue_wait_seconds", "", "time a flight leader waited for a compute slot", obs.DefBuckets(), 4)
	r.GaugeFunc("plinger_serve_uptime_seconds", "", "seconds since the service started",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("plinger_serve_cache_entries", `cache="primary"`, "entries in the response LRU",
		func() float64 { return float64(s.cache.Stats().Size) })
	r.GaugeFunc("plinger_serve_queue_computing", "", "sweeps currently holding a compute slot",
		func() float64 { return float64(s.adm.Stats().Computing) })
	r.GaugeFunc("plinger_serve_queue_waiting", "", "requests waiting for a compute slot",
		func() float64 { return float64(s.adm.Stats().Waiting) })
	r.GaugeFunc("plinger_serve_models", "", "models in the registry (all share one executor)",
		func() float64 { return float64(s.models.Stats().Size) })
	r.GaugeFunc("plinger_serve_inflight_keys", "", "distinct keys currently computing",
		func() float64 { return float64(s.flights.InFlight()) })
	r.GaugeFunc("plinger_serve_bessel_tables", "", "entries in the process-wide Bessel kernel cache",
		func() float64 { return float64(specfunc.BesselCacheLen()) })
	// The Go runtime gauges live on the process-wide registry next to the
	// engine series; registration is idempotent, so every Service may ask.
	obs.RegisterRuntimeMetrics(obs.Default)
	return s
}

// Close stops the service's shared pool once its sweeps in flight finish.
// A farm is not the service's to close.
func (s *Service) Close() {
	if s.pool != nil {
		s.pool.Close()
	}
}

// Defaults returns the resolved request fallbacks.
func (s *Service) Defaults() Defaults { return s.opts.Defaults }

// Source describes how a response was produced.
type Source string

const (
	SourceCache     Source = "cache"     // LRU hit, no computation
	SourceCompute   Source = "compute"   // this request ran the sweep
	SourceCoalesced Source = "coalesced" // attached to another request's sweep
	SourcePeer      Source = "peer"      // fetched from the key's owning fleet peer
)

// Meta is the per-request serving telemetry.
type Meta struct {
	Key     string        `json:"key"`
	Source  Source        `json:"source"`
	Elapsed time.Duration `json:"-"`
	// Trace is the sweep trace id when this request led the computation
	// (empty for cache hits and coalesced followers); the full trace is
	// retrievable from /v1/trace while it remains in the ring.
	Trace string `json:"-"`
	// Peer is the owning member's address when Source is SourcePeer.
	Peer string `json:"-"`
}

// ClResponse is the cached C_l product. Immutable once computed.
type ClResponse struct {
	L           []int     `json:"l"`
	Cl          []float64 `json:"cl"`
	BandPowerUK []float64 `json:"band_power_uk"`
	// AmpScale is the primordial amplitude applied by COBE normalization
	// (0 when the request did not normalize).
	AmpScale float64 `json:"amp_scale,omitempty"`
}

// PkResponse is the cached P(k) product. Immutable once computed.
type PkResponse struct {
	K      []float64 `json:"k"`
	T      []float64 `json:"t"`
	P      []float64 `json:"p"`
	Sigma8 float64   `json:"sigma8"`
}

// flightOut is one caller's view of a flight: the shared product and
// error, plus leader-only routing facts (trace id, answering peer).
// Coalesced followers see only p/err — the leader's closure writes the rest
// into its own runFlight frame.
type flightOut struct {
	p              *product
	err            error
	coalesced      bool
	leaderCacheHit bool
	traceID        string
	peer           string // owning member, when a peer answered
}

// lookup is the shared serve path: cache, then coalesced + admitted compute.
// A positive deadline bounds only this request's WAIT: the sweep itself runs
// to completion in the background and fills the cache, so a timed-out
// request warms the next one.
//
// A non-nil fwd engages the sharded fleet (peer.go): a miss whose key a
// remote peer owns is fetched from the owner instead of swept locally,
// degrading to a local compute on any peer failure.
func (s *Service) lookup(ctx context.Context, k *kind, j job, fwd *peerForward) (*product, Meta, error) {
	s.requests.Inc()
	start := time.Now()
	key := j.key
	meta := Meta{Key: key}
	if p, ok := s.cache.Get(key); ok {
		return p, s.hit(key, start), nil
	}
	var out flightOut
	if j.deadlineMS > 0 {
		ch := make(chan flightOut, 1)
		go func() { ch <- s.fly(ctx, k, j, fwd) }()
		timer := time.NewTimer(time.Duration(j.deadlineMS) * time.Millisecond)
		defer timer.Stop()
		select {
		case out = <-ch:
		case <-timer.C:
			meta.Elapsed = time.Since(start)
			s.timeouts.Inc()
			meta.Source = SourceCompute
			return nil, meta, ErrDeadline
		}
	} else {
		out = s.fly(ctx, k, j, fwd)
	}
	p, err := out.p, out.err
	meta.Elapsed = time.Since(start)
	meta.Trace = out.traceID
	switch {
	case err == ErrBusy:
		s.rejected.Inc()
		meta.Source = SourceCompute
	case err != nil:
		s.errCount.Inc()
		meta.Source = SourceCompute
	case out.peer != "":
		// Peer forward: the leader already counted it (peer.go); hit/miss
		// timing stays local-only.
		meta.Source = SourcePeer
		meta.Peer = out.peer
	case out.coalesced:
		s.coalesced.Inc()
		meta.Source = SourceCoalesced
	case out.leaderCacheHit:
		s.hits.Inc()
		meta.Source = SourceCache
		s.hitNs.Add(meta.Elapsed.Nanoseconds())
	default:
		s.misses.Inc()
		meta.Source = SourceCompute
		s.missNs.Add(meta.Elapsed.Nanoseconds())
	}
	return p, meta, err
}

// hit counts one request answered from the response cache since start.
func (s *Service) hit(key string, start time.Time) Meta {
	s.hits.Inc()
	meta := Meta{Key: key, Source: SourceCache, Elapsed: time.Since(start)}
	s.hitNs.Add(meta.Elapsed.Nanoseconds())
	return meta
}

// aliasHit answers a request body by its alias digest d (see lru), when the
// response cache holds one: a cache hit counted as lookup counts one, in
// the requests, the hits and k's latency, with no decode, validation or key
// derivation before it.
func (s *Service) aliasHit(k *kind, d digest) (*product, Meta, bool) {
	start := time.Now()
	key, p, ok := s.cache.GetAlias(d)
	if !ok {
		return nil, Meta{}, false
	}
	s.requests.Inc()
	meta := s.hit(key, start)
	k.lat.Observe(meta.Elapsed.Seconds())
	return p, meta, true
}

// fly is one cache miss's flight: the first caller of a key leads it and
// every concurrent caller of the same key coalesces onto it.
func (s *Service) fly(ctx context.Context, k *kind, j job, fwd *peerForward) flightOut {
	var out flightOut
	v, err, coalesced := s.flights.Do(j.key, func() (any, error) {
		// The flight leader re-checks the cache: an earlier flight for the
		// same key may have completed between our miss and this call.
		if p, ok := s.cache.Get(j.key); ok {
			out.leaderCacheHit = true
			return p, nil
		}
		// A local run returns its trace id instead of writing out.traceID
		// directly because a hedged run (peer.go) may settle after the
		// flight has already returned the peer's answer — the leader adopts
		// the id only when it adopts the result.
		runLocal := func() outcome { return s.runLocal(ctx, k, j) }
		if fwd != nil {
			if p, err, handled := s.peerServe(ctx, j.key, fwd, runLocal, &out); handled {
				return p, err
			}
		}
		lr := runLocal()
		out.traceID = lr.trace
		return lr.p, lr.err
	})
	out.p, _ = v.(*product)
	out.err, out.coalesced = err, coalesced
	return out
}

// runLocal computes j's product on this node and caches it: a sweep, or a
// derivation from its base product when j's request has one.
func (s *Service) runLocal(ctx context.Context, k *kind, j job) outcome {
	// Only flight leaders that actually compute carry a trace: cache hits
	// and coalesced followers stay on the untraced (and allocation-free)
	// path, and the ring holds one trace per computed product.
	tr := obs.NewTrace(k.name)
	s.traces.Add(tr)
	defer tr.Finish()
	done := s.sweeps
	var v any
	var err error
	if b, ok := j.req.base(); ok {
		done = s.derived
		v, err = s.derive(ctx, k, j, b, tr)
	} else {
		v, err = s.sweep(ctx, j, tr)
	}
	if err != nil {
		return outcome{err: err, trace: tr.ID()}
	}
	sp := tr.Start("encode")
	p, err := newProduct(v)
	sp.End()
	if err != nil {
		return outcome{err: err, trace: tr.ID()}
	}
	// Counted once cached, so a caller that sees the count finds the product.
	s.cache.Add(j.key, p)
	done.Inc()
	return outcome{p: p, trace: tr.ID()}
}

// sweep is one admitted sweep of j's request on its cosmology's model.
func (s *Service) sweep(ctx context.Context, j job, tr *obs.Trace) (any, error) {
	// The leader computes on behalf of every follower that coalesces onto
	// this flight, so its own request's cancellation must not abort the
	// shared work (one disconnecting client would fail N healthy ones).
	// Only the values of ctx are kept; the admission queue and the sweep
	// run to completion regardless.
	sp := tr.Start("queue_wait")
	if err := s.adm.acquire(context.WithoutCancel(ctx)); err != nil {
		sp.End()
		return nil, err
	}
	sp.End()
	s.queueWait.Observe(tr.SpanMS("queue_wait") / 1e3)
	defer s.adm.release()
	sp = tr.Start("model_acquire")
	m, err := s.models.acquire(*j.cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	return j.req.sweep(m, s.opts.Defaults, tr)
}

// derive answers j from the product of its base request b, which it fetches
// through a flight like any miss — the leader's cache check, coalescing,
// its own admission slot — but without a slot of its own: a derivation that held one while it waited for
// its base's sweep would deadlock at MaxConcurrent. The base is fetched on
// this node when j itself came from a peer, so no request travels more than
// one hop; otherwise it may be forwarded to its own owner.
func (s *Service) derive(ctx context.Context, k *kind, j job, b request, tr *obs.Trace) (any, error) {
	sp := tr.Start("derive")
	defer sp.End()
	bj := job{req: b, cfg: j.cfg, peer: j.peer, key: hashKey(k.name, b.canonical())}
	out := s.fly(ctx, k, bj, s.forward(k, bj))
	if out.err != nil {
		return nil, out.err
	}
	return j.req.derive(out.p)
}

// kind is one row of the product table: C_l or P(k). Its name is the key
// prefix, the trace label and the last element of the product's /v1/<name>
// and /v1/peer/<name> routes.
type kind struct {
	name   string
	decode func(json.RawMessage) (*product, error) // a result a peer encoded
	lat    *obs.Histogram                          // request latency, cache hits included
}

func newKind(r *obs.Registry, name string, decode func(json.RawMessage) (*product, error)) kind {
	return kind{name, decode, r.Histogram("plinger_serve_request_seconds", `endpoint="`+name+`"`,
		"request latency by endpoint (cache hits included)", obs.DefBuckets(), 4)}
}

// request is a resolved request of either product, the body of its peer
// forward: what the one compute path asks of each product is its key's
// canonical form and the sweep that computes it on its cosmology's model
// or, when base reports a base request, the derivation from that
// request's product that replaces the sweep.
type request interface {
	canonical() string
	sweep(m *plinger.Model, d Defaults, tr *obs.Trace) (any, error)
	base() (request, bool)
	derive(base *product) (any, error)
}

// job is one request as its product's half hands it to compute: the
// resolved request and its cosmology, the wire request's own and the
// facade's validation verdicts, the wire request's deadline, and whether it
// arrived on a peer route.
type job struct {
	req              request
	cfg              *plinger.Config
	wireErr, optsErr error
	deadlineMS       int
	peer             bool
	key              string // set by compute
}

// compute is the one serving path of both products: wire validation, then
// the facade's validation of the resolved options, then the peer forward of
// the resolved request, then lookup.
func (s *Service) compute(ctx context.Context, k *kind, j job) (*product, Meta, error) {
	// Wire-level validation first: negatives must 400, not resolve to
	// defaults (resolve treats only zero as "use the default"). Then the
	// facade's fast-fails before the request touches the flight group or
	// the admission queue: garbage must not occupy compute slots.
	if j.wireErr == nil {
		j.key = hashKey(k.name, j.req.canonical())
	}
	if err := cmp.Or(j.wireErr, j.optsErr); err != nil {
		s.requests.Inc()
		s.errCount.Inc()
		return nil, Meta{Key: j.key, Source: SourceCompute}, err
	}
	p, meta, err := s.lookup(ctx, k, j, s.forward(k, j))
	k.lat.Observe(meta.Elapsed.Seconds())
	return p, meta, err
}

// forward prepares the peer forward of j, or nil when there is no fleet.
// A forward carries the fully resolved request so the owner derives the
// identical key even when its own configured defaults differ.
// A request that arrived on a peer route never builds one: a forward
// travels at most one hop.
func (s *Service) forward(k *kind, j job) *peerForward {
	if s.cluster == nil || j.peer {
		return nil
	}
	body, err := json.Marshal(j.req)
	if err != nil {
		return nil
	}
	return &peerForward{kind: k, body: body}
}

// ComputeCl serves one C_l request.
func (s *Service) ComputeCl(ctx context.Context, req ClRequest) (*ClResponse, Meta, error) {
	p, meta, err := s.computeCl(ctx, req, false)
	if err != nil {
		return nil, meta, err
	}
	return p.v.(*ClResponse), meta, nil
}

// computeCl is ComputeCl returning the cached product, for the handlers;
// peer marks a request that arrived on /v1/peer/cl.
func (s *Service) computeCl(ctx context.Context, req ClRequest, peer bool) (*product, Meta, error) {
	rr := req.resolve(s.opts.Defaults)
	return s.compute(ctx, &s.cl, job{req: rr, cfg: rr.Config, wireErr: req.Validate(),
		optsErr: rr.options(s.opts.Defaults).Validate(), deadlineMS: req.DeadlineMS, peer: peer})
}

// options is the facade request a resolved C_l request runs.
func (r ClRequest) options(d Defaults) plinger.SpectrumOptions {
	o := plinger.SpectrumOptions{
		LMaxCl:     r.LMaxCl,
		NK:         r.NK,
		FastLOS:    !r.Exact,
		FastEvolve: !r.Exact,
		KRefine:    r.KRefine,
		LSpline:    !r.Exact && d.LSpline,
	}
	if !r.Exact {
		o.KBatch = d.KBatch
	}
	return o
}

func (r ClRequest) sweep(m *plinger.Model, d Defaults, tr *obs.Trace) (any, error) {
	o := r.options(d)
	o.Trace = tr
	spec, err := m.ComputeSpectrum(o)
	if err != nil {
		return nil, err
	}
	sp := tr.Start("assemble")
	defer sp.End()
	return clResponse(r.spectrum(spec.L, spec.Cl), 0), nil
}

// base is the request with its normalization dropped: the product a
// normalized request is derived from.
func (r ClRequest) base() (request, bool) {
	if r.QCOBEMicroK == 0 {
		return nil, false
	}
	r.QCOBEMicroK = 0
	return r, true
}

// derive rescales a copy of the base product's spectrum to the COBE
// quadrupole. The rescaling and the band powers are the calls a sweep of
// the normalized request would make, so the bits are those of a sweep.
func (r ClRequest) derive(base *product) (any, error) {
	b := base.v.(*ClResponse)
	spec := r.spectrum(slices.Clone(b.L), slices.Clone(b.Cl))
	scale, err := spec.NormalizeCOBE(r.QCOBEMicroK)
	if err != nil {
		return nil, err
	}
	return clResponse(spec, scale), nil
}

// spectrum wraps multipoles and C_l of r's cosmology with the temperature
// of the model r's key is swept on.
func (r ClRequest) spectrum(l []int, cl []float64) *spectra.ClSpectrum {
	return &spectra.ClSpectrum{L: l, Cl: cl, TCMB: servedConfig(*r.Config).TCMB}
}

// clResponse is the C_l product of a spectrum and the primordial amplitude
// its normalization applied (0: none), band powers included.
func clResponse(spec *spectra.ClSpectrum, scale float64) *ClResponse {
	out := &ClResponse{L: spec.L, Cl: spec.Cl, AmpScale: scale, BandPowerUK: make([]float64, len(spec.L))}
	for i := range spec.L {
		out.BandPowerUK[i] = spec.BandPower(i)
	}
	return out
}

// ComputePk serves one P(k) request.
func (s *Service) ComputePk(ctx context.Context, req PkRequest) (*PkResponse, Meta, error) {
	p, meta, err := s.computePk(ctx, req, false)
	if err != nil {
		return nil, meta, err
	}
	return p.v.(*PkResponse), meta, nil
}

// computePk is ComputePk returning the cached product, for the handlers;
// peer marks a request that arrived on /v1/peer/pk.
func (s *Service) computePk(ctx context.Context, req PkRequest, peer bool) (*product, Meta, error) {
	rr := req.resolve(s.opts.Defaults)
	return s.compute(ctx, &s.pk, job{req: rr, cfg: rr.Config, wireErr: req.Validate(),
		optsErr: rr.options().Validate(), deadlineMS: req.DeadlineMS, peer: peer})
}

// options is the facade request a resolved P(k) request runs.
func (r PkRequest) options() plinger.MatterPowerOptions {
	return plinger.MatterPowerOptions{KMin: r.KMin, KMax: r.KMax, NK: r.NK, Amp: r.Amp}
}

func (r PkRequest) sweep(m *plinger.Model, _ Defaults, tr *obs.Trace) (any, error) {
	o := r.options()
	o.Trace = tr
	mp, err := m.MatterPower(o)
	if err != nil {
		return nil, err
	}
	return &PkResponse{K: mp.K, T: mp.T, P: mp.P, Sigma8: mp.Sigma8}, nil
}

// base reports none: P(k) folds Amp into the primordial spectrum before
// sigma_8, so a P(k) product is not rebuilt from another one.
func (r PkRequest) base() (request, bool) { return nil, false }

func (r PkRequest) derive(*product) (any, error) {
	return nil, errors.New("serve: a P(k) product is never derived")
}

// Stats is the /v1/stats document.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      uint64  `json:"requests"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Coalesced     uint64  `json:"coalesced"`
	Rejected      uint64  `json:"rejected"`
	Errors        uint64  `json:"errors"`
	Sweeps        uint64  `json:"sweeps"`
	// Timeouts counts requests whose deadline expired before the sweep
	// finished.
	Timeouts     uint64     `json:"timeouts"`
	AvgHitMS     float64    `json:"avg_hit_ms"`
	AvgMissMS    float64    `json:"avg_miss_ms"`
	InFlightKeys int        `json:"in_flight_keys"`
	Cache        CacheStats `json:"cache"`
	Models       ModelStats `json:"models"`
	Queue        QueueStats `json:"queue"`
	Defaults     Defaults   `json:"defaults"`
	Workers      int        `json:"workers"`
	// BesselTables is the current size of the process-wide spherical-
	// Bessel kernel cache — bounded by the same LRU discipline as the
	// model registry, so a daemon churning through resolutions can watch
	// that it stays capped.
	BesselTables int `json:"bessel_tables"`
	// LatencyCl and LatencyPk are the per-endpoint latency distributions
	// (cache hits included), read from the same histograms /metrics exposes.
	LatencyCl LatencyStats `json:"latency_cl"`
	LatencyPk LatencyStats `json:"latency_pk"`
	// Traces is the number of sweep traces currently in the /v1/trace ring.
	Traces int `json:"traces"`
	// Farm is the worker-fleet roster and supervision counters — per-host
	// RunStats aggregates included — when the service computes over a farm
	// (absent on in-process pool deployments).
	Farm *farm.Status `json:"farm,omitempty"`
	// Cluster is the sharded-cache fleet view — the peering roster plus
	// this node's serving-side forwarding counters — when the daemon runs
	// with -peers (absent on single-node deployments).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the /v1/stats view of the sharded cache fleet: the
// peering layer's roster and counters (cluster.Status) plus the serving
// side of the contract — how often this node's misses were owned
// elsewhere, answered by a peer, hedged, or degraded to local serving.
type ClusterStats struct {
	cluster.Status
	PeerRequests  uint64 `json:"peer_requests"`
	PeerServed    uint64 `json:"peer_served"`
	Hedged        uint64 `json:"hedged"`
	LocalFallback uint64 `json:"local_fallback"`
}

// LatencyStats summarizes one latency histogram for /v1/stats. Quantiles
// are bucket-interpolated (see obs.HistSnapshot.Quantile).
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// latencyStats reads the quantile summary off a histogram.
func latencyStats(h *obs.Histogram) LatencyStats {
	s := h.Snapshot()
	return LatencyStats{
		Count: s.Count,
		P50MS: s.Quantile(0.50) * 1e3,
		P95MS: s.Quantile(0.95) * 1e3,
		P99MS: s.Quantile(0.99) * 1e3,
		MaxMS: s.Max * 1e3,
	}
}

// Stats snapshots the serving counters.
func (s *Service) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests.Value(),
		Hits:          s.hits.Value(),
		Misses:        s.misses.Value(),
		Coalesced:     s.coalesced.Value(),
		Rejected:      s.rejected.Value(),
		Errors:        s.errCount.Value(),
		Sweeps:        s.sweeps.Value(),
		Timeouts:      s.timeouts.Value(),
		InFlightKeys:  s.flights.InFlight(),
		Cache:         s.cache.Stats(),
		Models:        s.models.Stats(),
		Queue:         s.adm.Stats(),
		Defaults:      s.opts.Defaults,
		Workers:       s.opts.Workers,
		BesselTables:  specfunc.BesselCacheLen(),
		LatencyCl:     latencyStats(s.cl.lat),
		LatencyPk:     latencyStats(s.pk.lat),
		Traces:        s.traces.Len(),
	}
	if st.Hits > 0 {
		st.AvgHitMS = float64(s.hitNs.Load()) / 1e6 / float64(st.Hits)
	}
	if st.Misses > 0 {
		st.AvgMissMS = float64(s.missNs.Load()) / 1e6 / float64(st.Misses)
	}
	if s.opts.Farm != nil {
		fs := s.opts.Farm.Status()
		st.Farm = &fs
	}
	if s.cluster != nil {
		st.Cluster = &ClusterStats{
			Status:        s.cluster.Status(),
			PeerRequests:  s.peerRequests.Value(),
			PeerServed:    s.peerServed.Value(),
			Hedged:        s.hedged.Value(),
			LocalFallback: s.localFallback.Value(),
		}
	}
	return st
}

// Sweeps returns the number of spectrum sweeps completed successfully —
// the coalescing tests' witness (failed computations, rejected requests
// and products derived from another product never count).
func (s *Service) Sweeps() uint64 { return s.sweeps.Value() }

// Traces returns snapshots of up to n recent sweep traces, newest first.
func (s *Service) Traces(n int) []obs.TraceSnapshot { return s.traces.Last(n) }

// String identifies the service configuration in logs.
func (s *Service) String() string {
	return fmt.Sprintf("serve.Service{workers=%d cache=%d models=%d concurrent=%d queue=%d}",
		s.opts.Workers, s.opts.CacheSize, s.opts.ModelCacheSize, s.opts.MaxConcurrent, s.opts.MaxQueue)
}
