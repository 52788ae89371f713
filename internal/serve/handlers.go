package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

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
// plus the fleet peer protocol (/v1/peer/cl, /v1/peer/pk, /v1/peer/ping —
// see peer.go). The peer routes are available on every node, clustered or
// not: a single-node daemon answering /v1/peer/cl is a slightly verbose
// /v1/cl.
//
// A compute route answers a body it has already served as a valid request
// from that body's alias in the response cache, without decoding it; such a
// hit is counted as a cache hit like any other (see computeRoute).
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
	// /v1/peer/<name>, whose requests never re-forward. The route alone
	// marks a forward: no field of the body can, so the hop bound is the
	// receiver's, not the wire's.
	for _, prefix := range []string{"/v1/", "/v1/peer/"} {
		peer := prefix == "/v1/peer/"
		mux.HandleFunc(prefix+s.cl.name, computeRoute(s, &s.cl, s.computeCl, peer))
		mux.HandleFunc(prefix+s.pk.name, computeRoute(s, &s.pk, s.computePk, peer))
	}
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
	// /v1/peer/ping is the membership probe of internal/cluster's monitor.
	ok := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
	mux.HandleFunc("/healthz", ok)
	mux.HandleFunc("/v1/peer/ping", ok)
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

// computeRoute is the handler of one product's compute route. A body the
// response cache holds as an alias of k's (see lru) is a cache hit found by
// its bytes alone, counted as any cache hit is: nothing decodes, validates
// or derives its key. Any other body is decoded, computed and written, and
// once served as a valid request it becomes its key's alias.
func computeRoute[R any](s *Service, k *kind, compute func(context.Context, R, bool) (*product, Meta, error), peer bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST a JSON request body")
			return
		}
		named, readErr := readBody(w, r, k.name)
		d := digest(sha256.Sum256(named))
		var p *product
		var meta Meta
		var err error
		hit := false
		if readErr == nil {
			p, meta, hit = s.aliasHit(k, d)
		}
		if !hit {
			var req R
			if !decodeJSON(w, replay(named[len(k.name):], readErr), &req) {
				return
			}
			p, meta, err = compute(r.Context(), req, peer)
			if err == nil {
				s.cache.Alias(meta.Key, d)
			}
		}
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
// slow-request threshold. The line's fields are built only when a line is
// written.
func (s *Service) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := s.reqSeq.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		info := s.logger.Enabled(r.Context(), slog.LevelInfo)
		slow := elapsed > s.opts.SlowRequest
		if !info && !slow {
			return
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		args := []any{
			"req", fmt.Sprintf("r-%06d", seq),
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
		if slow {
			s.logger.Warn("slow request", args...)
		}
	})
}

// maxRequestBody bounds a request body; a longer one is answered 413.
const maxRequestBody = 1 << 20

// decodeJSON parses the JSON body src into req; an empty or blank body is
// the zero request (the service defaults). A field req does not have, at
// any depth, is refused, not dropped: a misspelt parameter would otherwise
// be served as its default. So is anything after the object. Returns false
// after writing an error: 413 when the body is over maxRequestBody, else
// 400.
func decodeJSON(w http.ResponseWriter, src io.Reader, req any) bool {
	dec := json.NewDecoder(src)
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

// readBody reads r's body, at most maxRequestBody bytes of it, after name:
// the bytes a body's alias digest covers. A failed read returns what
// arrived before it, and its error.
func readBody(w http.ResponseWriter, r *http.Request, name string) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	buf := append(make([]byte, 0, 512), name...)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// replay is the body stream readBody saw: body, then err (nil: the end).
// A decoder over it answers as one over the request's own body would.
func replay(body []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), failedRead{err})
}

type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

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
// "result" field holding the value: the head is appended field by field as
// encoding/json writes it. The cached body is copied, never appended to.
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
	// headRoom holds the head's names, punctuation, source and number.
	const field, tail, headRoom = ",\n  \"result\": ", "\n}\n", 128
	buf := make([]byte, 0, headRoom+len(meta.Key)+len(meta.Trace)+len(meta.Peer)+len(field)+len(p.body)+len(tail))
	buf = append(buf, "{\n  \"key\": "...)
	buf = appendString(buf, meta.Key)
	buf = append(buf, ",\n  \"source\": "...)
	buf = appendString(buf, string(meta.Source))
	buf = append(buf, ",\n  \"elapsed_ms\": "...)
	// Any Duration in milliseconds is 0 or has a magnitude in [1e-6, 1e13),
	// where encoding/json writes a float64 in this shortest 'f' form.
	buf = strconv.AppendFloat(buf, float64(meta.Elapsed.Nanoseconds())/1e6, 'f', -1, 64)
	if meta.Trace != "" {
		buf = append(buf, ",\n  \"trace_id\": "...)
		buf = appendString(buf, meta.Trace)
	}
	if meta.Peer != "" {
		buf = append(buf, ",\n  \"peer\": "...)
		buf = appendString(buf, meta.Peer)
	}
	buf = append(buf, field...)
	buf = append(buf, p.body...)
	buf = append(buf, tail...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// appendString appends s as a JSON string the way encoding/json writes it:
// verbatim when no byte of s needs escaping (HTML-sensitive ones included),
// else as json.Marshal escapes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string cannot fail to encode
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
