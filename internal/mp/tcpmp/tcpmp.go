// Package tcpmp is the socket transport: a star of TCP connections around
// the master. Every Appendix-A message crosses a worker's one connection as
// a data frame: KindData, the tag, the payload's length in bytes, then its
// little-endian doubles. Appendix A never sends from one worker to another,
// so nothing is relayed.
//
// Worker processes reach a master only through internal/farm, whose
// registration checks the worker's build and whose sweeps carry their
// messages through these endpoints and this data frame, beside the farm's
// control frames on the same connection. Loopback builds the same star
// inside one process (dispatch.NewMP's "tcp" world), which is how the
// benchmark weighs the socket against the in-process transports.
package tcpmp

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/mp"
)

// KindData is the first header word of a data frame: one Appendix-A message,
// the tag in the second word.
const KindData = int32(7)

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

// Loopback builds a world of n endpoints in this process, each worker tied
// to the master by its own loopback TCP connection. Rank r is the r-th
// connection the master dials to itself, so nothing but data frames ever
// crosses one. A worker's mailbox closes once its connection ends or
// carries anything but a data frame; hangup closes the master's side of
// every connection, which ends the world.
func Loopback(n int) (eps []*Endpoint, hangup func(), err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("tcpmp: need at least one process, got %d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("tcpmp: listen: %w", err)
	}
	defer ln.Close()
	conns := make([]*Conn, n)
	master := NewEndpoint(0, n, conns)
	hangup = func() {
		for _, c := range conns[1:] {
			if c != nil {
				c.Close()
			}
		}
	}
	eps = []*Endpoint{master}
	for rank := 1; rank < n; rank++ {
		d, a, err := dialSelf(ln)
		if err != nil {
			hangup()
			return nil, nil, err
		}
		conns[rank] = &Conn{Conn: a}
		w := NewEndpoint(rank, n, []*Conn{{Conn: d}})
		eps = append(eps, w)
		go func() {
			readData(a, func(tag int32, payload []byte) error { return master.Deliver(rank, tag, payload) })
			a.Close()
		}()
		go func() {
			readData(d, func(tag int32, payload []byte) error { return w.Deliver(0, tag, payload) })
			w.Close()
			d.Close()
		}()
	}
	return eps, hangup, nil
}

// dialSelf dials ln and accepts that connection: the dialed end, then the
// accepted one. A stranger that reached ln first is an error, not a rank.
func dialSelf(ln net.Listener) (d, a net.Conn, err error) {
	if d, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, nil, fmt.Errorf("tcpmp: dial: %w", err)
	}
	if a, err = ln.Accept(); err == nil && a.RemoteAddr().String() != d.LocalAddr().String() {
		a.Close()
		err = fmt.Errorf("connection from %s", a.RemoteAddr())
	}
	if err != nil {
		d.Close()
		return nil, nil, fmt.Errorf("tcpmp: accept: %w", err)
	}
	return d, a, nil
}
