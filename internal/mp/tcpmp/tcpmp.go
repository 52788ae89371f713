// Package tcpmp is the distributed transport: a star of TCP connections
// around the master. The master listens for a world of fixed size; each
// worker dials it, presents the magic word and is told its rank and the
// world size, in join order. From then on every Appendix-A message crosses
// the worker's one connection as a data frame: KindData, the tag, the
// payload's length in bytes, then its little-endian doubles. Appendix A
// never sends from one worker to another, so nothing is relayed. Endpoints
// may live in one OS process (tests, dispatch.NewMP) or in many
// (cmd/plinger -role master|worker), which is how the paper's code ran
// across the nodes of the SP2.
//
// internal/farm carries its sweeps through the same Endpoint and the same
// data frame, beside its control frames on the same connection.
package tcpmp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/mp"
)

const magic = 0x504c4e47 // "PLNG"

// KindData is the first header word of a data frame: one Appendix-A message,
// the tag in the second word.
const KindData = int32(7)

// joinTimeout bounds a join on both sides: a dialer that has not presented
// the magic word by then is closed, at the cost of its own connection only.
// Variable so the tests can shrink it.
var joinTimeout = 10 * time.Second

// writeTimeout bounds every frame write: a peer whose TCP buffer stopped
// draining (a wedged process, a dead link before the RST) costs the writer
// an error, never a stuck sweep. It is far above any healthy flush time, so
// expiry is a liveness verdict.
const writeTimeout = 30 * time.Second

// Conn is one master–worker connection. Frames are written whole under its
// lock: a farm's control frames share the socket with the data frames.
type Conn struct {
	net.Conn
	wmu sync.Mutex
}

// WriteFrame writes one mp frame, bounded by the write timeout.
func (c *Conn) WriteFrame(kind, tag int32, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	return mp.WriteFrame(c.Conn, kind, tag, payload)
}

// readData hands c's data frames to deliver until the connection ends or
// carries anything else.
func readData(c net.Conn, deliver func(tag int32, payload []byte) error) {
	for {
		kind, tag, payload, err := mp.ReadFrame(c)
		if err != nil || kind != KindData || deliver(tag, payload) != nil {
			return
		}
	}
}

// Endpoint is one process's end of the star, the master's or a worker's.
// conns[r] is its connection to rank r: every worker's on the master (whose
// own, conns[0], is nil), the master's alone on a worker. A Send is a data
// frame on the destination's connection, or a push into the endpoint's own
// mailbox when it names its own rank; the frames that arrive reach the
// mailbox through Deliver. Close closes the mailbox; the connections belong
// to whoever opened them.
type Endpoint struct {
	*mp.Queue
	conns      []*Conn
	rank, size int
	bytes      atomic.Int64
}

// NewEndpoint returns rank's endpoint in a world of size ranks.
func NewEndpoint(rank, size int, conns []*Conn) *Endpoint {
	return &Endpoint{Queue: mp.NewQueue(), conns: conns, rank: rank, size: size}
}

func (e *Endpoint) Rank() int   { return e.rank }
func (e *Endpoint) Size() int   { return e.size }
func (e *Endpoint) Master() int { return 0 }

func (e *Endpoint) Send(dst, tag int, data []float64) error {
	if dst == e.rank {
		return e.Push(mp.Message{Tag: tag, Source: dst, Data: append([]float64(nil), data...)})
	}
	if dst < 0 || dst >= len(e.conns) || e.conns[dst] == nil {
		return fmt.Errorf("tcpmp: rank %d has no connection to rank %d", e.rank, dst)
	}
	payload := mp.EncodeFloats(data)
	e.bytes.Add(int64(len(payload)))
	return e.conns[dst].WriteFrame(KindData, int32(tag), payload)
}

// Bcast sends to every process the endpoint is connected to: the workers
// from the master, the master from a worker. One it cannot reach does not
// keep the message from the others; the first such error is returned.
func (e *Endpoint) Bcast(tag int, data []float64) error {
	var first error
	for dst, c := range e.conns {
		if c == nil {
			continue
		}
		if err := e.Send(dst, tag, data); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Deliver puts a data frame that arrived from src in the mailbox. After the
// mailbox closed it is discarded — a straggler's duplicate once the master
// finished, the wire form of the master's first-wins rule.
func (e *Endpoint) Deliver(src int, tag int32, payload []byte) error {
	data, err := mp.DecodeFloats(payload)
	if err != nil {
		return err
	}
	e.bytes.Add(int64(len(payload)))
	_ = e.Push(mp.Message{Tag: int(tag), Source: src, Data: data})
	return nil
}

// BytesMoved returns the payload bytes of the data frames sent and received.
func (e *Endpoint) BytesMoved() int64 { return e.bytes.Load() }

// Listener is the master's side of a world of fixed size: it admits the
// first workers to join, up to the size, and closes every later dialer.
type Listener struct {
	ln      net.Listener
	master  *Endpoint
	timeout time.Duration // the join timeout, fixed when the listener starts

	mu   sync.Mutex
	next int           // the rank the next join takes
	full chan struct{} // closed once every rank is taken
}

// Listen starts the master of a world of n processes, listening on addr
// ("127.0.0.1:0" for an ephemeral port).
func Listen(addr string, n int) (*Listener, error) {
	if n < 1 {
		return nil, fmt.Errorf("tcpmp: need at least one process, got %d", n)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpmp: listen: %w", err)
	}
	l := newListener(n)
	l.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go l.join(c)
		}
	}()
	return l, nil
}

func newListener(n int) *Listener {
	l := &Listener{
		master:  NewEndpoint(0, n, make([]*Conn, n)),
		timeout: joinTimeout,
		next:    1,
		full:    make(chan struct{}),
	}
	if n == 1 {
		close(l.full)
	}
	return l
}

// Addr returns the address workers dial.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept waits until every worker has joined and returns the master's
// endpoint.
func (l *Listener) Accept() *Endpoint {
	<-l.full
	return l.master
}

// Close stops listening and closes every worker's connection.
func (l *Listener) Close() error {
	l.mu.Lock()
	for _, c := range l.master.conns[1:l.next] {
		c.Close()
	}
	l.mu.Unlock()
	return l.ln.Close()
}

// join admits one dialer and then reads its data frames into the master's
// mailbox. A dialer that does not present the magic word within the join
// timeout, or comes once the world is full, costs only its own connection.
func (l *Listener) join(c net.Conn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(l.timeout))
	var m uint32
	if binary.Read(c, binary.LittleEndian, &m) != nil || m != magic {
		return
	}
	if rank := l.admit(c); rank > 0 {
		c.SetDeadline(time.Time{})
		readData(c, func(tag int32, payload []byte) error { return l.master.Deliver(rank, tag, payload) })
	}
}

// admit tells c the next rank and the world size and files its connection
// under that rank. It returns the rank, or 0 when c was not admitted.
func (l *Listener) admit(c net.Conn) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	rank, n := l.next, l.master.size
	if rank == n || binary.Write(c, binary.LittleEndian, []int32{int32(rank), int32(n)}) != nil {
		return 0
	}
	l.master.conns[rank] = &Conn{Conn: c}
	if l.next++; l.next == n {
		close(l.full)
	}
	return rank
}

// Dial joins the world whose master listens at addr and returns this
// worker's endpoint. Its mailbox is filled from the connection until the
// connection ends or carries anything but a data frame; then both close.
func Dial(addr string) (*Endpoint, error) {
	c, err := net.DialTimeout("tcp", addr, joinTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcpmp: dial: %w", err)
	}
	c.SetDeadline(time.Now().Add(joinTimeout))
	var hdr [2]int32
	err = binary.Write(c, binary.LittleEndian, uint32(magic))
	if err == nil {
		err = binary.Read(c, binary.LittleEndian, hdr[:])
	}
	if err == nil && (hdr[0] < 1 || hdr[0] >= hdr[1]) {
		err = fmt.Errorf("rank %d of %d", hdr[0], hdr[1])
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpmp: join %s: %w", addr, err)
	}
	c.SetDeadline(time.Time{})
	conn := &Conn{Conn: c}
	e := NewEndpoint(int(hdr[0]), int(hdr[1]), []*Conn{conn})
	go func() {
		readData(c, func(tag int32, payload []byte) error { return e.Deliver(0, tag, payload) })
		e.Close()
		c.Close()
	}()
	return e, nil
}
