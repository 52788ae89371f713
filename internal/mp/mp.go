// Package mp provides the message-passing substrate of PLINGER. The paper
// isolates all communication behind a small set of wrapper routines —
// initpass, endpass, mybcastreal, mysendreal, mycheckany, mycheckone,
// mychecktid and myrecvreal — implemented on PVM, MPI, MPL and PVMe. This
// package defines the same abstraction as the Endpoint interface, with the
// same matching semantics (receives and probes that match on message tag
// and/or source, FIFO delivery per (source, tag) pair, as MPI_RECV and
// MPI_IPROBE), over interchangeable transports:
//
//   - chanmp: in-process goroutine "nodes" (shared-memory MPI analogue)
//   - tcpmp:  a TCP connection from each worker to the master — in one
//     process over loopback, or between OS processes through
//     internal/farm
//   - fifomp: a strict arrival-order transport modelling the MPL
//     restriction noted in Section 4 ("MPL requires that messages be
//     received in the order in which they arrive")
//
// The paper's observation — that for this computation the choice of library
// has no effect on efficiency — is reproduced as a benchmark.
//
// Every endpoint embeds a Queue, the one mailbox, and the package owns the
// one socket frame (WriteFrame, ReadFrame) that tcpmp and internal/farm speak.
package mp

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// AnyTag matches any message tag in probe/receive operations.
const AnyTag = -1

// AnySource matches any sender in probe/receive operations.
const AnySource = -1

// Message is one tagged message of float64 payload, mirroring the paper's
// "length double precision numbers starting at position buffer".
type Message struct {
	Tag    int
	Source int
	Data   []float64
}

// Endpoint is one process's connection to the message-passing world: the
// Go rendering of the paper's wrapper routines, which internal/dispatch's
// Appendix-A master (RunMaster) and Worker speak through. Implementations
// must be safe for use by one goroutine per endpoint (the PLINGER pattern), with
// one exception every transport here meets (a locked mailbox push, a
// per-connection write mutex): Send may be called from other goroutines
// beside the owner's, and a Send to the endpoint's own rank is delivered
// to its own mailbox — how a death report reaches a probing master (see
// TagDown). Recv blocks until a matching message arrives.
type Endpoint interface {
	// Rank returns this process's ID (the paper's mytid).
	Rank() int
	// Size returns the number of processes.
	Size() int
	// Master returns the master's rank (the paper's mastid).
	Master() int

	// Bcast sends data with the given tag to every other process
	// (mybcastreal). Only meaningful on the master.
	Bcast(tag int, data []float64) error
	// Send sends data with the given tag to one process (mysendreal).
	Send(dst, tag int, data []float64) error
	// ProbeTimeout waits until a message matching (tag, source) is
	// available and returns its actual tag and source without consuming
	// it, or gives up once d has elapsed with none, returning ok=false: the
	// master's mycheckany (AnyTag, AnySource), bounded so that the
	// fault-tolerant master, which the paper's wrappers lack (its protocol
	// "has no fault tolerance"), sees a silent worker. err is reserved for
	// real failures (closed endpoint, strict-FIFO mismatch); a timeout is
	// not an error.
	ProbeTimeout(tag, source int, d time.Duration) (gotTag, gotSource int, ok bool, err error)
	// Recv blocks until a message matching (tag, source) is available,
	// then consumes and returns it (myrecvreal). Use AnyTag and AnySource
	// for wildcards: a worker's Recv(AnyTag, master) is the paper's
	// mychecktid and myrecvreal in one call.
	Recv(tag, source int) (Message, error)
	// Close leaves the message-passing world (endpass).
	Close() error
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("mp: endpoint closed")

// Queue is a blocking mailbox with MPI matching semantics: messages are
// kept in arrival order and probes/receives select the first message whose
// (tag, source) matches, preserving FIFO order per (source, tag) pair.
// It is the shared matching engine of all transports.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []Message
	closed bool

	// strictFIFO restricts matching to the head of the queue, modelling
	// MPL's arrival-order receive.
	strictFIFO bool
}

// NewQueue returns an empty mailbox.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// NewStrictFIFOQueue returns a mailbox that only matches the head message,
// as MPL requires.
func NewStrictFIFOQueue() *Queue {
	q := NewQueue()
	q.strictFIFO = true
	return q
}

// Push delivers a message to the mailbox.
func (q *Queue) Push(m Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.msgs = append(q.msgs, m)
	q.cond.Broadcast()
	return nil
}

// Close wakes all waiters with ErrClosed. It returns nil; the error is
// there so that an endpoint embedding the queue satisfies Endpoint.
func (q *Queue) Close() error {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	return nil
}

func match(m Message, tag, source int) bool {
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	if source != AnySource && m.Source != source {
		return false
	}
	return true
}

// find returns the index of the message a probe or receive for (tag, source)
// selects: the first match, or on a strict-FIFO mailbox the head, where a
// head that does not match is an error (op names the caller in it). -1 means
// nothing to select yet. The caller holds q.mu.
func (q *Queue) find(op string, tag, source int) (int, error) {
	for i, m := range q.msgs {
		if match(m, tag, source) {
			return i, nil
		}
		if q.strictFIFO {
			return -1, fmt.Errorf("mp: strict-FIFO transport: head message (tag %d from %d) does not match %s (tag %d, src %d)",
				m.Tag, m.Source, op, tag, source)
		}
	}
	return -1, nil
}

// ProbeTimeout waits for a matching message, no longer than d, and returns
// its tag and source without removing it; ok=false reports that d elapsed
// first. The timeout wakes the wait through the queue's own condition
// variable, so no polling loop spins while waiting.
func (q *Queue) ProbeTimeout(tag, source int, d time.Duration) (int, int, bool, error) {
	deadline := time.Now().Add(d)
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		i, err := q.find("probe", tag, source)
		if err != nil {
			return 0, 0, false, err
		}
		if i >= 0 {
			return q.msgs[i].Tag, q.msgs[i].Source, true, nil
		}
		if q.closed {
			return 0, 0, false, ErrClosed
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, 0, false, nil
		}
		t := time.AfterFunc(remaining, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})
		q.cond.Wait()
		t.Stop()
	}
}

// Recv blocks until a matching message is present and removes it.
func (q *Queue) Recv(tag, source int) (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		i, err := q.find("recv", tag, source)
		if err != nil {
			return Message{}, err
		}
		if i >= 0 {
			m := q.msgs[i]
			q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
			return m, nil
		}
		if q.closed {
			return Message{}, ErrClosed
		}
		q.cond.Wait()
	}
}

// Len reports the number of queued messages (for tests and stats).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}
