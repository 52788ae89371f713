package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/serve"
)

// server is a serve.Service behind a real loopback listener, in this
// process: generator and server share the machine the way the issue sizes
// them.
type server struct {
	svc  *serve.Service
	http *http.Server
	url  string
	done chan struct{}
}

// Header names the traced pass uses to tie the server-side span of a
// request to the client's op.
const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Span"
)

// startServer listens on an ephemeral loopback port and serves the
// service's own handler. With a recorder, each request that names its op
// gets a span around Handler().ServeHTTP; without one the handler is served
// bare.
func startServer(defaults serve.Defaults, workers int, rec *recorder) (*server, error) {
	svc := serve.New(serve.Options{Defaults: defaults, Workers: workers})
	h := svc.Handler()
	if rec != nil {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			op, err := strconv.Atoi(r.Header.Get(hdrOp))
			if err != nil {
				inner.ServeHTTP(rw, r)
				return
			}
			parent, _ := strconv.Atoi(r.Header.Get(hdrParent))
			sp := rec.start("serve.handler", op, spanRef{rec: rec, idx: parent})
			inner.ServeHTTP(rw, r)
			sp.end()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String() + "/v1/cl",
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx)
	<-s.done
	s.svc.Close()
}

// newClient returns an HTTP client that keeps at most conns connections to
// the server, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one /v1/cl request and reads the whole answer.
func post(c *http.Client, url string, body []byte, op int, parent spanRef) (status int, answer []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent.rec != nil {
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrParent, strconv.Itoa(parent.idx))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(resp.Body)
	return resp.StatusCode, answer, err
}

// resultMarker starts the science payload inside the response envelope;
// everything before it (source, elapsed_ms) changes per request, everything
// from it on is the cached product and must not.
var resultMarker = []byte(`"result":`)

// payload returns the part of a response body that carries the spectrum.
func payload(body []byte) ([]byte, bool) {
	i := bytes.Index(body, resultMarker)
	if i < 0 {
		return nil, false
	}
	return body[i:], true
}

// wireEnvelope is the part of the handler's response the checks read.
type wireEnvelope struct {
	Source    string           `json:"source"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Result    serve.ClResponse `json:"result"`
}

// checkSpectrum parses a response body and requires a finite, positive
// spectrum; ref, when not nil, is also compared against (a seeded cosmology
// has no reference: finite and positive is all that can be asked).
func checkSpectrum(body []byte, ref *reference) (env wireEnvelope, relErr float64, err error) {
	if err = json.Unmarshal(body, &env); err != nil {
		return env, 0, fmt.Errorf("response does not parse: %w", err)
	}
	relErr, err = ref.relErr(env.Result.L, env.Result.Cl)
	return env, relErr, err
}

// hotState is the preloaded working set: the requests and, per key, the
// payload bytes the service answered with at preload time. A later answer
// for the same key must carry exactly those bytes.
type hotState struct {
	reqs     []request
	payloads [][]byte
}

// preload starts a server and fills its cache: every hot key is POSTed once
// (a cold miss each), then the SCDM canary — the service's default request
// — is computed and compared with the committed exact spectrum. It returns
// the client-side miss latencies and the server-reported compute times of
// the preload requests, the only sweeps a serve workload is sure to run.
func preload(w workload, a childArgs, nproc int, rec *recorder, rep *childReport) (*server, *hotState, error) {
	ref, err := loadReference(w.Ref)
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(w.Service, nproc, rec)
	if err != nil {
		return nil, nil, err
	}
	hot := &hotState{reqs: hotSet(a.Seed, w.HotCosmologies, w.HotLMaxCls, w.Service)}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var missMS, sweepMS samples
	for i, rq := range hot.reqs {
		rep.Attempted++
		t0 := time.Now()
		status, body, err := post(c, srv.url, rq.Body, 0, noSpan)
		ms := msSince(t0)
		if err != nil || status != http.StatusOK {
			srv.stop()
			return nil, nil, fmt.Errorf("preload of hot key %d: status %d, err %v", i, status, err)
		}
		env, _, err := checkSpectrum(body, nil)
		if err != nil {
			srv.stop()
			return nil, nil, fmt.Errorf("preload of hot key %d: %w", i, err)
		}
		if env.Source != string(serve.SourceCompute) {
			srv.stop()
			return nil, nil, fmt.Errorf("preload of hot key %d answered from %q: the seed made two equal keys", i, env.Source)
		}
		p, _ := payload(body)
		hot.payloads = append(hot.payloads, p)
		missMS = append(missMS, ms)
		sweepMS = append(sweepMS, env.ElapsedMS)
	}
	// The canary: the default request is SCDM at the stock product, for
	// which an exact reference is committed.
	rep.Attempted++
	status, body, err := post(c, srv.url, []byte(`{}`), 0, noSpan)
	if err != nil || status != http.StatusOK {
		srv.stop()
		return nil, nil, fmt.Errorf("canary request: status %d, err %v", status, err)
	}
	_, relErr, err := checkSpectrum(body, ref)
	switch {
	case err != nil:
		rep.fail("canary: %v", err)
	case relErr > maxClRelErr:
		rep.fail("canary deviates %.3g from reference %s", relErr, ref.Name)
	}
	rep.Proc["cl_max_rel_err"] = floorErr(relErr)
	missMS.put(rep.Proc, "miss_p50_ms", "")
	sweepMS.put(rep.Proc, "sweep_p50_ms", "")
	return srv, hot, nil
}

// check judges the answer to a hot request: 200 and the preload-time bytes.
func (h *hotState) check(key, status int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	p, ok := payload(body)
	if !ok || !bytes.Equal(p, h.payloads[key]) {
		return fmt.Errorf("hot key %d: payload differs from the preload-time answer", key)
	}
	return nil
}

// runServeChild is one process of a serve workload.
func runServeChild(w workload, a childArgs, nproc int) (*childReport, error) {
	rep := &childReport{Workload: w.Name, Proc: map[string]float64{}}
	if a.Trace {
		return rep, tracedServePass(w, a, nproc, rep)
	}
	srv, hot, err := preload(w, a, nproc, nil, rep)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rep.Proc["setup_s"] = a.sinceSpawn()

	roundDur := a.roundDur()
	for r := 0; r < roundsPerProc; r++ {
		var vals map[string]float64
		if w.Kind == kindServeHot {
			vals = hotRound(srv, hot, a, r, nproc, roundDur, nil, 0, 0, rep)
		} else {
			sched := mixedSchedule(a.Seed, a.Proc, r, roundDur.Seconds(), w.Mixed, len(hot.reqs))
			vals = mixedRound(srv, hot, sched, nproc, nil, 0, rep)
		}
		rep.Rounds = append(rep.Rounds, vals)
	}
	rep.Proc["rss_peak_mb"] = readUsage().MaxRSSMB
	return rep, nil
}

// hotRound is one closed-loop round: nproc keep-alive clients, each on its
// own connection, each sending its next request when the previous answer
// has arrived and been checked. It stops after roundDur, or after maxOps
// requests when maxOps > 0 (the traced replay).
func hotRound(srv *server, hot *hotState, a childArgs, round, nproc int, roundDur time.Duration, rec *recorder, opBase, maxOps int, rep *childReport) map[string]float64 {
	type clientOut struct {
		lat, gaps samples
		ops, slo  int
		fails     []error
	}
	outs := make([]clientOut, nproc)
	var wg sync.WaitGroup
	clock := startRound()
	for ci := 0; ci < nproc; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := &outs[ci]
			c := newClient(1)
			defer c.CloseIdleConnections()
			next := hotChooser(a.Seed, a.Proc, round*nproc+ci, len(hot.reqs))
			for {
				if maxOps > 0 {
					if out.ops >= maxOps/nproc {
						break
					}
				} else if time.Since(clock.t0) >= roundDur {
					break
				}
				key := next()
				op := opBase + ci*100_000 + out.ops
				t0 := time.Now()
				sp := rec.start("op.hit", op, noSpan)
				status, body, err := post(c, srv.url, hot.reqs[key].Body, op, sp)
				sp.end()
				ms := msSince(t0)
				out.ops++
				if err := hot.check(key, status, body, err); err != nil {
					out.fails = append(out.fails, err)
				} else {
					out.lat = append(out.lat, ms)
					if ms <= sloHotMS {
						out.slo++
					}
				}
				// What the client spends between answer and next request:
				// checking the bytes and choosing a key.
				out.gaps = append(out.gaps, msSince(t0)-ms)
			}
		}(ci)
	}
	wg.Wait()
	vals := map[string]float64{}
	var lat, gaps samples
	ops, slo := 0, 0
	for _, o := range outs {
		lat, gaps = append(lat, o.lat...), append(gaps, o.gaps...)
		ops += o.ops
		slo += o.slo
		for _, err := range o.fails {
			rep.fail("hit: %v", err)
		}
	}
	rep.Attempted += ops
	clock.finish(vals, ops, len(lat), slo)
	lat.put(vals, "hit_p50_ms", "hit_p99_ms")
	gaps.put(vals, "gen.gap_p50_ms", "gen.late_p99_ms")
	vals["gen.sent"] = float64(ops)
	return vals
}

// mixedRound is one open-loop round over conns keep-alive connections, one
// client goroutine each. A client takes the next arrival of the schedule,
// waits for its due time if that is still ahead, sends it and reads the
// answer; latency is counted from the due time, so an arrival that found
// every connection busy pays for its wait, and how late it was sent is the
// generator's lateness. The round ends when the last arrival has been
// answered.
func mixedRound(srv *server, hot *hotState, sched []arrival, conns int, rec *recorder, opBase int, rep *childReport) map[string]float64 {
	type outcome struct {
		ms, lateMS float64
		err        error
		payload    []byte
	}
	outs := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	clock := startRound()
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(1)
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				ar, out := &sched[i], &outs[i]
				due := clock.t0.Add(time.Duration(ar.DueNS))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				body := ar.Body
				if ar.Class == classHot {
					body = hot.reqs[ar.Hot].Body
				}
				out.lateMS = msSince(due)
				op := opBase + i
				sp := rec.start("op."+ar.Class, op, noSpan)
				status, answer, err := post(c, srv.url, body, op, sp)
				sp.end()
				out.ms = msSince(due)
				switch {
				case ar.Class == classHot:
					out.err = hot.check(ar.Hot, status, answer, err)
				case err != nil:
					out.err = err
				case status != http.StatusOK:
					out.err = fmt.Errorf("status %d", status)
				default:
					if _, _, err := checkSpectrum(answer, nil); err != nil {
						out.err = err
					}
					out.payload, _ = payload(answer)
				}
			}
		}()
	}
	wg.Wait()

	// A repeat must carry the same bytes as the cold answer it repeats.
	coldPayload := map[int][]byte{}
	for i, ar := range sched {
		if ar.Class == classCold && outs[i].err == nil {
			coldPayload[ar.Pair] = outs[i].payload
		}
	}
	vals := map[string]float64{}
	lat := map[string]samples{}
	var late samples
	okAll, slo := 0, 0
	for i, ar := range sched {
		out := &outs[i]
		if ar.Class == classRepeat && out.err == nil {
			if want, ok := coldPayload[ar.Pair]; ok && !bytes.Equal(want, out.payload) {
				out.err = fmt.Errorf("repeat of pair %d differs from its cold answer", ar.Pair)
			}
		}
		late = append(late, out.lateMS)
		if out.err != nil {
			rep.fail("%s: %v", ar.Class, out.err)
			continue
		}
		okAll++
		lat[ar.Class] = append(lat[ar.Class], out.ms)
		limit := sloColdMS
		if ar.Class == classHot {
			limit = sloHotMS
		}
		if out.ms <= limit {
			slo++
		}
	}
	rep.Attempted += len(sched)
	clock.finish(vals, len(sched), okAll, slo)
	lat[classHot].put(vals, "hit_p50_ms", "hit_p99_ms")
	lat[classCold].put(vals, "miss_p50_ms", "serve.miss_tail_ms")
	lat[classRepeat].put(vals, "repeat_p50_ms", "")
	late.put(vals, "gen.late_p50_ms", "gen.late_p99_ms")
	vals["gen.sent"] = float64(len(sched))
	return vals
}
