// Package fault is the one seeded fault injector behind every chaos test:
// a Plan says what goes wrong and when, and three thin adapters put it on
// the three channels a sweep or a request can lose — the message-passing
// wire (Wrap, around an mp.Endpoint), the fleet's peer protocol
// (NewTransport, around an http.RoundTripper) and a farm worker's
// connection (WrapConn, around a net.Conn). The paper's Appendix-A
// protocol "has no fault tolerance"; the recovery paths that this
// repository adds are proven against scripted failures that replay
// identically on every run, because every probabilistic decision derives
// from the plan's seed and the sequence of operations.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"plinger/internal/mp"
)

// ErrInjected is the error of an injected failure: a Fail drawn on a
// send, and every operation after Kill struck.
var ErrInjected = errors.New("fault: injected failure")

// Then is what strikes once a plan's counted events have passed.
type Then int

const (
	// Nothing: the plan only draws Drop and Fail.
	Nothing Then = iota
	// Kill fails every later operation with ErrInjected and closes the
	// wrapped channel, so its peers see the process leave.
	Kill
	// Hang blocks every later operation until Close or until the
	// operation's context ends: the failure only a deadline can see.
	Hang
)

// Plan scripts the faults of one wrapped channel. Each adapter defines its
// counted event: an assignment received (Wrap), a matching request
// (NewTransport), a write (WrapConn).
type Plan struct {
	// Seed drives the generator behind Drop and Fail.
	Seed int64
	// Drop is the probability that a send is lost: the caller sees
	// success (a request: no answer), nothing arrives.
	Drop float64
	// Fail is the probability that a send fails (a request: an injected
	// 503).
	Fail float64
	// After counted events pass, Then strikes (0: from the start).
	After int
	Then  Then
}

// Stats counts the counted events a plan saw and each fault that fired.
type Stats struct {
	Ops    int // counted events
	Drops  int // sends lost
	Fails  int // sends failed
	Killed int // operations refused after Kill
	Hung   int // operations blocked by Hang
}

type outcome int

const (
	pass outcome = iota
	drop
	fail
	kill
	hang
)

// injector is a plan's state, shared by the three adapters. kill closes
// the wrapped channel when Kill strikes; done, closed by Close, releases
// hung operations with the adapter's closed error.
type injector struct {
	plan   Plan
	kill   func() error
	closed error

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats

	done     chan struct{}
	doneOnce sync.Once
}

func newInjector(p Plan, kill func() error, closed error) *injector {
	return &injector{plan: p, kill: kill, closed: closed, rng: rand.New(rand.NewSource(p.Seed)), done: make(chan struct{})}
}

// Stats snapshots the counters.
func (in *injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide picks one operation's outcome. A send draws once for each
// probability that is set, whichever fault fires, so the pattern is a
// function of the seed and the number of sends alone; a struck Then
// overrides the draw. counted books the operation as an event.
func (in *injector) decide(send, counted bool) outcome {
	in.mu.Lock()
	o := pass
	if send && in.plan.Fail > 0 && in.rng.Float64() < in.plan.Fail {
		o = fail
	}
	if send && in.plan.Drop > 0 && in.rng.Float64() < in.plan.Drop && o == pass {
		o = drop
	}
	if in.plan.Then != Nothing && in.stats.Ops >= in.plan.After {
		o = kill
		if in.plan.Then == Hang {
			o = hang
		}
	}
	if counted {
		in.stats.Ops++
	}
	switch o {
	case drop:
		in.stats.Drops++
	case fail:
		in.stats.Fails++
	case kill:
		in.stats.Killed++
	case hang:
		in.stats.Hung++
	}
	in.mu.Unlock()
	if o == kill && in.kill != nil {
		in.kill()
	}
	return o
}

// gate decides one operation of a channel that Close releases: a Fail or a
// struck Kill is ErrInjected, a hang waits for Close, and dropped reports
// a send to be swallowed.
func (in *injector) gate(send, counted bool) (dropped bool, err error) {
	switch in.decide(send, counted) {
	case kill, fail:
		return false, ErrInjected
	case hang:
		<-in.done
		return false, in.closed
	case drop:
		return true, nil
	}
	return false, nil
}

func (in *injector) release() { in.doneOnce.Do(func() { close(in.done) }) }

// Endpoint is an mp.Endpoint under a plan. The counted event is a received
// assignment (plinger's TagAssign), which is still delivered: a killed
// worker dies holding its block. Only sends draw Drop and Fail.
type Endpoint struct {
	mp.Endpoint
	*injector
}

// Wrap puts p on ep.
func Wrap(ep mp.Endpoint, p Plan) *Endpoint {
	return &Endpoint{Endpoint: ep, injector: newInjector(p, ep.Close, mp.ErrClosed)}
}

func (e *Endpoint) Send(dst, tag int, data []float64) error {
	if dropped, err := e.gate(true, false); dropped || err != nil {
		return err
	}
	return e.Endpoint.Send(dst, tag, data)
}

func (e *Endpoint) Bcast(tag int, data []float64) error {
	if dropped, err := e.gate(true, false); dropped || err != nil {
		return err
	}
	return e.Endpoint.Bcast(tag, data)
}

func (e *Endpoint) ProbeTimeout(tag, source int, d time.Duration) (int, int, bool, error) {
	if _, err := e.gate(false, false); err != nil {
		return 0, 0, false, err
	}
	return e.Endpoint.ProbeTimeout(tag, source, d)
}

func (e *Endpoint) Recv(tag, source int) (mp.Message, error) {
	if _, err := e.gate(false, false); err != nil {
		return mp.Message{}, err
	}
	m, err := e.Endpoint.Recv(tag, source)
	if err == nil && m.Tag == mp.TagAssign {
		// The assignment that completes After strikes a Kill at once, so
		// peers see the process leave while it holds the block.
		e.mu.Lock()
		e.stats.Ops++
		struck := e.plan.Then == Kill && e.stats.Ops == e.plan.After
		e.mu.Unlock()
		if struck {
			e.kill()
		}
	}
	return m, err
}

func (e *Endpoint) Close() error {
	e.release()
	return e.Endpoint.Close()
}

// Transport is an http.RoundTripper under a plan. The counted event is a
// request that match selects (nil: every request); the others pass
// untouched. Fail answers an injected 503, Drop and Hang leave the request
// unanswered until its context ends, Kill refuses it like a dead peer.
type Transport struct {
	base  http.RoundTripper
	match func(*http.Request) bool
	*injector
}

// NewTransport puts p on base (nil: http.DefaultTransport).
func NewTransport(base http.RoundTripper, p Plan, match func(*http.Request) bool) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, match: match, injector: newInjector(p, nil, nil)}
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.match != nil && !t.match(req) {
		return t.base.RoundTrip(req)
	}
	o := t.decide(true, true)
	if o != pass && req.Body != nil {
		req.Body.Close()
	}
	switch o {
	case kill:
		return nil, fmt.Errorf("%w: peer %s killed", ErrInjected, req.URL.Host)
	case drop, hang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case fail:
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Status: "503 injected",
			ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
	}
	return t.base.RoundTrip(req)
}

// Conn is a net.Conn under a plan. The counted event is a write; only
// writes draw Drop and Fail.
type Conn struct {
	net.Conn
	*injector
}

// WrapConn puts p on c.
func WrapConn(c net.Conn, p Plan) *Conn {
	return &Conn{Conn: c, injector: newInjector(p, c.Close, net.ErrClosed)}
}

func (c *Conn) Write(b []byte) (int, error) {
	if dropped, err := c.gate(true, true); dropped {
		return len(b), nil
	} else if err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

func (c *Conn) Read(b []byte) (int, error) {
	if _, err := c.gate(false, false); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

func (c *Conn) Close() error {
	c.release()
	return c.Conn.Close()
}
