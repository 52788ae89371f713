package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"
)

// This file is the serving side of the sharded cache fleet (tentpole of
// the resilience work; the peering substrate lives in internal/cluster).
// Every wire-stable cache key has exactly one owner in the peer ring. On
// a cache miss for a remote-owned key, the flight leader forwards the
// fully resolved request to the owner over the peer protocol:
//
//	POST /v1/peer/cl    resolved ClRequest  -> envelope
//	POST /v1/peer/pk    resolved PkRequest  -> envelope
//	GET  /v1/peer/ping                      -> membership probe
//
// The degradation contract, in order:
//
//  1. owner answers inside the hedge window        -> source "peer"
//  2. owner slow: race forward vs local compute    -> first success wins
//  3. forward fails (dead, open breaker, timeout)  -> local compute
//
// Every local compute, degraded or not, is cached on the node that ran it.
// A request that arrived on a peer route never re-forwards — the route
// marks it, not the body — so a forward travels at most one hop even when
// membership views disagree: a wrong ownership view costs one extra sweep,
// never correctness.

// peerForward is a prepared forward of one request to its owning peer.
// The body is the fully resolved request — defaults filled in, DeadlineMS
// zeroed — so the owner derives the identical cache key even when its
// configured defaults differ from ours.
type peerForward struct {
	kind *kind
	body []byte
}

// outcome is the result of one admitted local compute or of one peer
// forward. A local compute's outcome carries its trace id instead of
// writing the flight's shared state because a hedged run may settle after
// the flight already adopted the peer's answer.
type outcome struct {
	p     *product
	err   error
	trace string
}

// decodeResult turns the result of a peer's answer into a product of this
// node's own encoding. A result whose arrays are empty or of unequal length
// is no product this node could have computed, and is refused before it can
// be cached.
func decodeResult[T any, P interface {
	*T
	lens() []int
}](raw json.RawMessage) (*product, error) {
	v := P(new(T))
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, err
	}
	if n := v.lens(); n[0] == 0 || slices.Min(n) != slices.Max(n) {
		return nil, fmt.Errorf("serve: malformed %T result (array lengths %v)", v, n)
	}
	return newProduct(v)
}

// lens are the lengths of a product's arrays (see decodeResult).
func (r *ClResponse) lens() []int { return []int{len(r.L), len(r.Cl), len(r.BandPowerUK)} }
func (r *PkResponse) lens() []int { return []int{len(r.K), len(r.T), len(r.P)} }

// peerServe routes one cache miss through the fleet. handled=false means
// this node owns the key and the ordinary local path should run. The
// leader-only flightOut fields (peer, traceID) are written here —
// never from the hedge goroutines.
func (s *Service) peerServe(ctx context.Context, key string, fwd *peerForward, runLocal func() outcome, out *flightOut) (*product, error, bool) {
	owner, remote := s.cluster.Owner(key)
	if !remote {
		return nil, nil, false
	}
	s.peerRequests.Inc()
	p, lr, ferr := s.peerFetch(ctx, owner, key, fwd, runLocal)
	switch {
	case p != nil:
		// The owner answered. Keep a local copy so the next request for
		// this key is an ordinary cache hit — the cross-node hit becomes a
		// zero-hop hit from here on.
		s.peerServed.Inc()
		out.peer = owner
		s.cache.Add(key, p)
		return p, nil, true
	case lr != nil:
		// A hedged local run settled and was adopted (the forward was slow
		// or failed after the hedge fired).
		out.traceID = lr.trace
		return lr.p, lr.err, true
	}
	// The forward failed fast — dead member, open breaker, exhausted
	// retries — and nothing ran locally yet: run it here.
	s.localFallback.Inc()
	s.logger.Warn("peer fetch failed; degrading to local", "peer", owner, "key", key, "err", ferr)
	lres := runLocal()
	out.traceID = lres.trace
	return lres.p, lres.err, true
}

// peerFetch forwards the request to the owner and, when the forward is
// slow, hedges it against a local compute. Exactly one of the returns is
// meaningful: p (the peer answered), lr (a local run settled and must be
// adopted, success or failure), or err (the forward failed and nothing
// ran locally). Like the compute path, the fetch is decoupled from the
// leader's own cancellation — coalesced followers depend on it — and
// bounded instead by the peering layer's per-hop timeout and retry budget.
func (s *Service) peerFetch(ctx context.Context, owner, key string, fwd *peerForward, runLocal func() outcome) (*product, *outcome, error) {
	fetchCh := make(chan outcome, 1)
	go func() {
		b, err := s.cluster.Fetch(context.WithoutCancel(ctx), owner, "/v1/peer/"+fwd.kind.name, fwd.body)
		if err != nil {
			fetchCh <- outcome{err: err}
			return
		}
		p, err := decodePeerEnvelope(b, key, fwd.kind.decode)
		fetchCh <- outcome{p: p, err: err}
	}()
	hedge := s.cluster.HedgeAfter()
	if hedge <= 0 {
		fr := <-fetchCh
		return fr.p, nil, fr.err
	}
	timer := time.NewTimer(hedge)
	defer timer.Stop()
	select {
	case fr := <-fetchCh:
		return fr.p, nil, fr.err
	case <-timer.C:
	}
	// The forward outlived the hedge window: race it against a local
	// compute and adopt the first success. The loser's work is not wasted
	// — a late peer response is dropped, a late local sweep still fills
	// the cache.
	s.hedged.Inc()
	localCh := make(chan outcome, 1)
	go func() { localCh <- runLocal() }()
	var failedLocal *outcome
	for {
		select {
		case fr := <-fetchCh:
			if fr.err == nil {
				return fr.p, nil, nil
			}
			if failedLocal != nil {
				return nil, failedLocal, nil
			}
			lr := <-localCh
			return nil, &lr, nil
		case lr := <-localCh:
			if lr.err == nil {
				return nil, &lr, nil
			}
			// Local failed (admission overflow, compute error): the slow
			// forward is now the best remaining hope — keep waiting on it.
			failedLocal = &lr
		}
	}
}

// peerEnvelope is the owner's reply as read by the forwarding node: the
// standard response envelope with the payload left raw for the typed
// decode.
type peerEnvelope struct {
	Key    string          `json:"key"`
	Source Source          `json:"source"`
	Result json.RawMessage `json:"result"`
}

// decodePeerEnvelope unwraps a forwarded response. The key check guards
// version or quantization skew: a peer that derives a different key for
// the same resolved request must not fill our cache under ours.
func decodePeerEnvelope(b []byte, key string, decode func(json.RawMessage) (*product, error)) (*product, error) {
	var env peerEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("serve: bad peer envelope: %w", err)
	}
	if env.Key != key {
		return nil, fmt.Errorf("serve: peer answered key %s for %s (key-schema skew)", env.Key, key)
	}
	return decode(env.Result)
}
