// Package tcpmp is the distributed transport: a small rendezvous daemon
// (the Hub, playing the role of the PVM daemon) accepts one TCP connection
// per process, assigns ranks in connection order (the first connection —
// by convention the master — gets rank 0), and routes tagged frames
// between processes. Endpoints may live in one OS process (tests) or in
// many (cmd/plinger -role master|worker), which is how the paper's code ran
// across the nodes of the SP2 and the C90/T3D pairing.
package tcpmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/mp"
)

// ErrDial marks a failure in the dial phase of Connect — the only phase a
// caller may safely retry. A handshake failure is NOT retryable: the hub has
// already counted the connection toward its world size, so dialing again
// would claim a second slot.
var ErrDial = errors.New("tcpmp: dial failed")

// ErrTimeout marks an i/o deadline expiry on an endpoint: a peer that went
// silent past the configured read window, or a send that could not drain
// within the write window. It is the transport-level signature of a dead or
// wedged peer — a *liveness* failure — and deliberately distinct from
// ErrProtocol so fault ledgers can count heartbeat-style misses separately
// from corrupted traffic.
var ErrTimeout = errors.New("tcpmp: i/o deadline exceeded")

// ErrProtocol marks a frame-level protocol violation: an impossible frame
// length, a bad magic word — traffic from a peer that is alive but speaking
// garbage. Recovery policy differs from ErrTimeout (a violating peer should
// be dropped outright, never waited for), which is why the two are typed.
var ErrProtocol = errors.New("tcpmp: protocol violation")

const magic = 0x504c4e47 // "PLNG"

// frameUnit is the unit of a frame's length word: tcpmp counts payloads in
// doubles (see mp.WriteFrame).
const frameUnit = 8

// hubMagicTimeout bounds how long the hub waits for a freshly accepted
// connection to present the magic word. Without it, one process that dials
// in and then wedges before writing anything holds the accept loop hostage
// and the whole rendezvous never completes — a silent connection must cost
// only its own slot, never the world's. Variable so the hardening test can
// shrink it.
var hubMagicTimeout = 5 * time.Second

// Hub is the rendezvous/routing daemon.
type Hub struct {
	ln    net.Listener
	n     int
	mu    sync.Mutex
	conns []net.Conn
	wmu   []sync.Mutex // per-connection write locks
	bytes atomic.Int64
	done  chan struct{}
	err   atomic.Value
}

// NewHub starts a hub for n processes listening on addr (use
// "127.0.0.1:0" for an ephemeral test port).
func NewHub(addr string, n int) (*Hub, error) {
	if n < 1 {
		return nil, fmt.Errorf("tcpmp: need at least one process, got %d", n)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpmp: listen: %w", err)
	}
	h := &Hub{ln: ln, n: n, done: make(chan struct{})}
	go h.accept()
	return h, nil
}

// Addr returns the hub's listen address for workers to dial.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// BytesMoved returns the cumulative payload bytes routed.
func (h *Hub) BytesMoved() int64 { return h.bytes.Load() }

// Close shuts the hub down.
func (h *Hub) Close() error {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	err := h.ln.Close()
	h.mu.Lock()
	for _, c := range h.conns {
		if c != nil {
			c.Close()
		}
	}
	h.mu.Unlock()
	return err
}

func (h *Hub) accept() {
	conns := make([]net.Conn, 0, h.n)
	for len(conns) < h.n {
		c, err := h.ln.Accept()
		if err != nil {
			h.err.Store(err)
			return
		}
		var m uint32
		c.SetReadDeadline(time.Now().Add(hubMagicTimeout))
		if err := binary.Read(c, binary.LittleEndian, &m); err != nil || m != magic {
			c.Close()
			continue
		}
		c.SetReadDeadline(time.Time{})
		conns = append(conns, c)
	}
	h.mu.Lock()
	h.conns = conns
	h.wmu = make([]sync.Mutex, h.n)
	h.mu.Unlock()
	// Handshake: tell each process its rank and the world size. A process
	// that died between Accept and here has already claimed its slot, so the
	// write to it may fail — that costs only the dead slot: the survivors
	// still get their ranks and their route loops, and the master's
	// assignment deadlines fail the silent rank like any other casualty.
	// (Storing the error and bailing here used to kill the hub for everyone.)
	for rank, c := range conns {
		hdr := [2]int32{int32(rank), int32(h.n)}
		if err := binary.Write(c, binary.LittleEndian, hdr[:]); err != nil {
			c.Close()
			h.mu.Lock()
			h.conns[rank] = nil
			h.mu.Unlock()
		}
	}
	for rank := range conns {
		if h.connAt(rank) != nil {
			go h.route(rank)
		}
	}
}

func (h *Hub) connAt(rank int) net.Conn {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.conns[rank]
}

// route forwards frames arriving from one process to their destinations.
func (h *Hub) route(rank int) {
	src := h.connAt(rank)
	if src == nil {
		return
	}
	for {
		dst, tag, payload, err := mp.ReadFrame(src, frameUnit)
		if err != nil {
			return // EOF: process left; or a malformed frame
		}
		if dst < 0 || int(dst) >= h.n {
			continue
		}
		h.bytes.Add(int64(len(payload)))
		dc := h.connAt(int(dst))
		if dc == nil {
			continue // destination lost its slot during handshake
		}
		// A write error means the destination died. The frame is dropped but
		// routing goes on for the rest of the world — killing this loop would
		// silence the sender toward every process, turning one dead worker
		// into a dead run. The sender learns of the loss through its
		// deadlines, like a PVM task whose peer vanished.
		h.wmu[dst].Lock()
		_ = mp.WriteFrame(dc, int32(rank), tag, payload, frameUnit)
		h.wmu[dst].Unlock()
	}
}

// endpoint is one process's connection to the hub.
type endpoint struct {
	*mp.Queue
	conn net.Conn
	rank int
	size int
	wmu  sync.Mutex

	// readTO/writeTO are optional per-frame i/o deadlines in nanoseconds
	// (0: none). Atomics because SetIOTimeouts races with the reader
	// goroutine by construction.
	readTO  atomic.Int64
	writeTO atomic.Int64
	closed  atomic.Bool  // local Close: reader exit is expected, not a fault
	ioErr   atomic.Value // error: why the reader stopped, classified
}

// SetIOTimeouts arms per-frame deadlines on a tcpmp endpoint: each inbound
// frame must start arriving within read, each Send must drain within write
// (0 leaves that direction unbounded). Expiry surfaces as ErrTimeout —
// from Send directly, and from Err after the receive side shuts down — so a
// fault ledger can file the peer under "went silent" instead of "spoke
// garbage" (ErrProtocol). Returns false when ep is not a tcpmp endpoint.
// A read timeout only suits callers with steady traffic or heartbeats;
// an idle-by-design master link should leave read at 0.
func SetIOTimeouts(ep mp.Endpoint, read, write time.Duration) bool {
	e, ok := ep.(*endpoint)
	if !ok {
		return false
	}
	e.readTO.Store(int64(read))
	e.writeTO.Store(int64(write))
	return true
}

// Err reports why the endpoint's receive side stopped: nil while healthy or
// after a local Close, ErrTimeout-wrapped after a read-deadline expiry,
// ErrProtocol-wrapped after a malformed frame, the raw transport error
// otherwise. Returns false when ep is not a tcpmp endpoint.
func Err(ep mp.Endpoint) (error, bool) {
	e, ok := ep.(*endpoint)
	if !ok {
		return nil, false
	}
	err, _ := e.ioErr.Load().(error)
	return err, true
}

// classify maps a transport error to the typed sentinels: net timeouts
// become ErrTimeout, everything else passes through untouched.
func classify(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// Connect joins the world at the hub address; it blocks until all
// processes have connected and returns the ranked endpoint.
func Connect(addr string) (mp.Endpoint, error) {
	return ConnectTimeout(addr, 0)
}

// ConnectTimeout is Connect with a bound on the whole rendezvous: the dial
// and the rank handshake must both finish within timeout (0: wait forever,
// the paper's behavior). The handshake only completes once every process
// has dialed in, so the bound is what lets a caller detect a worker that
// never joins instead of hanging on it.
func ConnectTimeout(addr string, timeout time.Duration) (mp.Endpoint, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrDial, addr, err)
	}
	if !deadline.IsZero() {
		if err := c.SetDeadline(deadline); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := binary.Write(c, binary.LittleEndian, uint32(magic)); err != nil {
		c.Close()
		return nil, err
	}
	var hdr [2]int32
	if err := binary.Read(c, binary.LittleEndian, hdr[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpmp: handshake: %w", err)
	}
	if !deadline.IsZero() {
		if err := c.SetDeadline(time.Time{}); err != nil {
			c.Close()
			return nil, err
		}
	}
	e := &endpoint{Queue: mp.NewQueue(), conn: c, rank: int(hdr[0]), size: int(hdr[1])}
	go e.reader()
	return e, nil
}

func (e *endpoint) reader() {
	fail := func(err error) {
		if !e.closed.Load() {
			e.ioErr.Store(err)
		}
		e.Queue.Close()
	}
	for {
		if to := e.readTO.Load(); to > 0 {
			e.conn.SetReadDeadline(time.Now().Add(time.Duration(to)))
		} else {
			e.conn.SetReadDeadline(time.Time{})
		}
		src, tag, payload, err := mp.ReadFrame(e.conn, frameUnit)
		if errors.Is(err, mp.ErrMalformedFrame) {
			fail(fmt.Errorf("%w: %w from rank %d", ErrProtocol, err, src))
			e.conn.Close() // a violating peer is dropped, not waited out
			return
		}
		if err != nil {
			fail(classify(err))
			return
		}
		data, _ := mp.DecodeFloats(payload) // whole doubles by frameUnit
		e.Push(mp.Message{Tag: int(tag), Source: int(src), Data: data})
	}
}

func (e *endpoint) Rank() int   { return e.rank }
func (e *endpoint) Size() int   { return e.size }
func (e *endpoint) Master() int { return 0 }

func (e *endpoint) Send(dst, tag int, data []float64) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if to := e.writeTO.Load(); to > 0 {
		e.conn.SetWriteDeadline(time.Now().Add(time.Duration(to)))
	} else {
		e.conn.SetWriteDeadline(time.Time{})
	}
	return classify(mp.WriteFrame(e.conn, int32(dst), int32(tag), mp.EncodeFloats(data), frameUnit))
}

func (e *endpoint) Bcast(tag int, data []float64) error {
	for i := 0; i < e.size; i++ {
		if i == e.rank {
			continue
		}
		if err := e.Send(i, tag, data); err != nil {
			return err
		}
	}
	return nil
}

func (e *endpoint) Close() error {
	e.closed.Store(true)
	e.Queue.Close()
	return e.conn.Close()
}
