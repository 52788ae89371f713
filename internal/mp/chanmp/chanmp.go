// Package chanmp is the in-process transport: every "node" is a goroutine
// and message delivery is a direct push into the destination's mailbox.
// It is the shared-memory analogue of running MPI on one SMP node and the
// default transport for the scaling benchmarks (Figure 1).
package chanmp

import (
	"fmt"
	"sync/atomic"

	"plinger/internal/mp"
)

// World is a set of connected in-process endpoints.
type World struct {
	eps   []*endpoint
	bytes atomic.Int64 // payload bytes moved, for the message-size table
}

type endpoint struct {
	*mp.Queue
	w    *World
	rank int
}

// New creates a world of n endpoints; rank 0 is the master.
func New(n int) (*World, []mp.Endpoint, error) { return NewWithQueues(n, mp.NewQueue) }

// NewWithQueues is New with the mailboxes made by newQueue: the matching
// rule is the only thing the in-process transports differ in (fifomp passes
// the strict arrival-order one).
func NewWithQueues(n int, newQueue func() *mp.Queue) (*World, []mp.Endpoint, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("chanmp: need at least one process, got %d", n)
	}
	w := &World{eps: make([]*endpoint, n)}
	out := make([]mp.Endpoint, n)
	for i := 0; i < n; i++ {
		w.eps[i] = &endpoint{Queue: newQueue(), w: w, rank: i}
		out[i] = w.eps[i]
	}
	return w, out, nil
}

// BytesMoved returns the cumulative payload bytes delivered, reproducing
// the paper's message-size accounting (150 bytes to 80 kbyte per k mode).
func (w *World) BytesMoved() int64 { return w.bytes.Load() }

func (e *endpoint) Rank() int   { return e.rank }
func (e *endpoint) Size() int   { return len(e.w.eps) }
func (e *endpoint) Master() int { return 0 }

func (e *endpoint) deliver(dst int, m mp.Message) error {
	if dst < 0 || dst >= len(e.w.eps) {
		return fmt.Errorf("chanmp: destination %d out of range [0,%d)", dst, len(e.w.eps))
	}
	// Copy the payload: the paper's semantics are by-value buffers.
	cp := m
	cp.Data = append([]float64(nil), m.Data...)
	e.w.bytes.Add(int64(8 * len(m.Data)))
	return e.w.eps[dst].Push(cp)
}

func (e *endpoint) Bcast(tag int, data []float64) error {
	for i := range e.w.eps {
		if i == e.rank {
			continue
		}
		if err := e.deliver(i, mp.Message{Tag: tag, Source: e.rank, Data: data}); err != nil {
			return err
		}
	}
	return nil
}

func (e *endpoint) Send(dst, tag int, data []float64) error {
	return e.deliver(dst, mp.Message{Tag: tag, Source: e.rank, Data: data})
}
