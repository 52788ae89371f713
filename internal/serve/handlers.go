package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"plinger/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/cl    {"config": {...}, "lmax_cl": 150, ...}  -> C_l JSON
//	POST /v1/pk    {"config": {...}, "nk": 40, ...}        -> P(k) JSON
//	GET  /v1/stats                                         -> serving counters
//	GET  /v1/trace?last=N                                  -> recent sweep traces
//	GET  /metrics                                          -> Prometheus text
//	GET  /healthz                                          -> 200 ok
//
// plus the fleet peer protocol (/v1/peer/cl, /v1/peer/pk, /v1/peer/offer,
// /v1/peer/ping — see peer.go).
//
// Responses carry the cache key, the source (cache/compute/coalesced/peer)
// and the serving latency alongside the science payload; the same metadata
// is mirrored in the X-Plinger-Source header, and a request that led a cold
// computation additionally carries its sweep trace id in X-Plinger-Trace.
// Overload returns 503, bad requests 400 with the facade's validation
// message, a body over 1 MiB 413, and a request whose deadline_ms expires
// before its product is in the cache returns 504. Every request is logged
// through Options.Logger with a per-request id; requests slower than
// Options.SlowRequest get an extra warning line carrying the trace id.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// The compute routes: /v1/<name> and the peer protocol's
	// /v1/peer/<name>, whose requests never re-forward, whatever the body
	// says — the hop bound is enforced by the receiver, not trusted from
	// the wire.
	for _, prefix := range []string{"/v1/", "/v1/peer/"} {
		peer := prefix == "/v1/peer/"
		mux.HandleFunc(prefix+s.cl.name, computeRoute(s, s.computeCl, peer))
		mux.HandleFunc(prefix+s.pk.name, computeRoute(s, s.computePk, peer))
	}
	s.peerRoutes(mux)
	mux.HandleFunc("/v1/stats", getOnly(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	mux.HandleFunc("/v1/trace", getOnly(func(w http.ResponseWriter, r *http.Request) {
		n := 16
		if q := r.URL.Query().Get("last"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				httpError(w, http.StatusBadRequest, "last must be a positive integer")
				return
			}
			n = v
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": s.Traces(n)})
	}))
	mux.HandleFunc("/metrics", getOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Per-service serving metrics first, then the peering layer's
		// (breaker states, membership, forward counters) when clustered,
		// then the process-wide engine metrics (sweeps, fault ledger,
		// table builds, Go runtime).
		s.reg.WritePrometheus(w)
		if s.cluster != nil {
			s.cluster.Registry().WritePrometheus(w)
		}
		obs.Default.WritePrometheus(w)
	}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s.logging(mux)
}

// getOnly answers any method but GET with 405.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w, r)
	}
}

// computeRoute is the handler of one product's compute route: decode the
// request, compute it, write the answer.
func computeRoute[R any](s *Service, compute func(context.Context, R, bool) (*product, Meta, error), peer bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if !decodeRequest(w, r, &req) {
			return
		}
		p, meta, err := compute(r.Context(), req, peer)
		if sw, ok := w.(*statusWriter); ok {
			sw.meta = meta
		}
		s.writeResponse(w, p, meta, err)
	}
}

// statusWriter captures the response status for the access log, and the
// serving metadata a compute route leaves on it.
type statusWriter struct {
	http.ResponseWriter
	status int
	meta   Meta
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// logging wraps the API mux with structured request logging: one INFO line
// per request (id, method, path, status, elapsed, cache source, sweep trace
// id when a computation ran) and a WARN line when the request exceeded the
// slow-request threshold.
func (s *Service) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		args := []any{
			"req", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"elapsed_ms", float64(elapsed.Nanoseconds()) / 1e6,
		}
		if sw.meta.Source != "" {
			args = append(args, "source", string(sw.meta.Source), "key", sw.meta.Key)
		}
		if sw.meta.Trace != "" {
			args = append(args, "trace", sw.meta.Trace)
		}
		s.logger.Info("request", args...)
		if elapsed > s.opts.SlowRequest {
			s.logger.Warn("slow request", args...)
		}
	})
}

// maxRequestBody bounds a request body; a longer one is answered 413.
const maxRequestBody = 1 << 20

// decodeRequest parses the JSON body into req; an empty or blank body is
// the zero request (the service defaults). A field req does not have, at
// any depth, is refused, not dropped: a misspelt parameter would otherwise
// be served as its default. So is anything after the object. Returns false
// after writing an error.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON request body")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("data after the request object")
		}
	}
	if err == io.EOF { // nothing but blanks in the body, or after the object
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, "reading request: "+err.Error())
	return false
}

// responseHead is the serving metadata that leads every response, ahead
// of the product's "result".
type responseHead struct {
	Key       string  `json:"key"`
	Source    Source  `json:"source"`
	ElapsedMS float64 `json:"elapsed_ms"`
	TraceID   string  `json:"trace_id,omitempty"`
	// Peer is the owning fleet member that served the response when
	// Source is "peer".
	Peer string `json:"peer,omitempty"`
}

// retryAfter derives the Retry-After hint written on 503 (queue full) and
// 504 (deadline expired) responses. Units are SECONDS — the RFC 9110
// delay-seconds form, never an HTTP-date. The hint estimates when the
// present backlog will have drained rather than asserting a bare
// constant: the waiting line forms waiting/max_concurrent compute
// batches ahead of the retrier, plus one for the batch in flight, each
// costing about one average cold sweep. Clamped to [1, 30] so an idle or
// just-started daemon (no miss history yet) still asks for a polite 1s
// pause, and a swamped one never pushes clients out more than half a
// minute.
func (s *Service) retryAfter() string {
	avgSweep := 1.0
	if m := s.misses.Value(); m > 0 {
		if a := float64(s.missNs.Load()) / 1e9 / float64(m); a > avgSweep {
			avgSweep = a
		}
	}
	q := s.adm.Stats()
	batches := float64(q.Waiting)/float64(q.MaxConcurrent) + 1
	sec := int(math.Ceil(batches * avgSweep))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return strconv.Itoa(sec)
}

// writeResponse writes one compute-API answer, whatever its source. A
// success is the head, encoded here, spliced with the product's body,
// encoded when the product was made:
//
//	{
//	  "key": ...,
//	  ...
//	  "result": <body>
//	}
//
// which is byte for byte what writeJSON would make of the head with a
// "result" field holding the value. The cached body is copied, never
// appended to.
func (s *Service) writeResponse(w http.ResponseWriter, p *product, meta Meta, err error) {
	if err != nil {
		switch {
		case errors.Is(err, ErrBusy):
			w.Header().Set("Retry-After", s.retryAfter())
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, ErrDeadline):
			// Before isBadRequest: the sentinel's "serve:" prefix would
			// otherwise classify a timeout as a client error. The sweep is
			// still running and will fill the cache, so retrying helps.
			w.Header().Set("Retry-After", s.retryAfter())
			httpError(w, http.StatusGatewayTimeout, err.Error())
		case isBadRequest(err):
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	w.Header().Set("X-Plinger-Source", string(meta.Source))
	w.Header().Set("X-Plinger-Key", meta.Key)
	if meta.Trace != "" {
		w.Header().Set("X-Plinger-Trace", meta.Trace)
	}
	if meta.Peer != "" {
		w.Header().Set("X-Plinger-Peer", meta.Peer)
	}
	// Strings and a finite float: the head cannot fail to encode.
	head, _ := json.MarshalIndent(responseHead{
		Key:       meta.Key,
		Source:    meta.Source,
		ElapsedMS: float64(meta.Elapsed.Nanoseconds()) / 1e6,
		TraceID:   meta.Trace,
		Peer:      meta.Peer,
	}, "", "  ")
	head = head[:len(head)-len("\n}")]
	const field, tail = ",\n  \"result\": ", "\n}\n"
	buf := make([]byte, 0, len(head)+len(field)+len(p.body)+len(tail))
	buf = append(buf, head...)
	buf = append(buf, field...)
	buf = append(buf, p.body...)
	buf = append(buf, tail...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// isBadRequest classifies validation failures: the serving layer's own
// wire checks ("serve:"), the facade's option validators ("plinger:") and
// config construction ("cosmology:").
func isBadRequest(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		msg := e.Error()
		for _, prefix := range []string{"serve:", "plinger:", "cosmology:"} {
			if len(msg) >= len(prefix) && msg[:len(prefix)] == prefix {
				return true
			}
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}
