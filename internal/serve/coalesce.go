package serve

import (
	"fmt"
	"sync"
)

// flightGroup is request coalescing (the singleflight pattern): while one
// goroutine computes the value for a key, every other goroutine asking for
// the same key waits for that one computation instead of starting its own.
// N concurrent identical cold requests therefore cost exactly one sweep.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
	dups int
}

// Do runs fn once per key at a time. The leader executes fn; followers
// block until it finishes and receive the same value and error. coalesced
// is true for followers. A panic in fn is the error of the leader and of
// every follower, and leaves the key free for the next Do to run fn again.
func (g *flightGroup) Do(key string, fn func() (any, error)) (val any, err error, coalesced bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = call(key, fn)

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}

// call runs fn, turning a panic into an error.
func call(key string, fn func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("computing %s panicked: %v", key, r)
		}
	}()
	return fn()
}

// InFlight returns the number of keys currently being computed.
func (g *flightGroup) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
