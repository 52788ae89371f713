package dispatch

import (
	"context"
	"fmt"
	"sync"

	"plinger/internal/core"
	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
	"plinger/internal/mp/fifomp"
	"plinger/internal/mp/tcpmp"
)

// MP is the message-passing backend: the paper's Appendix A master/worker
// protocol over any mp.Endpoint transport, with the workers as goroutines
// of this process running Worker; worker processes join a master through
// internal/farm instead. RunMaster drives the master, which recovers from
// lost workers: a worker that fails reports its death to it at once, one
// that falls silent is failed when its MasterOptions.AssignDeadline runs
// out.
type MP struct {
	Model *core.Model
	// Endpoints[0] is the master's endpoint; a worker goroutine is
	// spawned for every further endpoint.
	Endpoints []mp.Endpoint
	// BytesMoved, when set, reports the transport-level payload counter
	// (e.g. chanmp.World.BytesMoved, which also sees master-to-worker
	// traffic); otherwise the master's received-byte count is used.
	BytesMoved func() int64
	// MasterOptions is what every Run hands RunMaster; Backend labels
	// RunStats.Backend ("mp/chan", "mp/fifo", "mp/tcp").
	MasterOptions
}

// Run implements Dispatcher: it starts a worker goroutine per further
// endpoint and drives the master through RunMaster. A worker's error is
// the master's to recover from, so only the master's fails the run.
func (d *MP) Run(ctx context.Context, ks []float64, mode core.Params) (*Sweep, *RunStats, error) {
	if d.Model == nil {
		return nil, nil, fmt.Errorf("dispatch: mp dispatcher has no model")
	}
	if len(d.Endpoints) == 0 {
		return nil, nil, fmt.Errorf("dispatch: mp dispatcher has no endpoints")
	}
	if len(ks) == 0 {
		return nil, nil, fmt.Errorf("dispatch: empty wavenumber grid")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	master := d.Endpoints[0]
	var wg sync.WaitGroup
	for _, wep := range d.Endpoints[1:] {
		wg.Add(1)
		go func(wep mp.Endpoint) {
			defer wg.Done()
			ok := false
			defer func() {
				// A worker that errs or panics reports its death, so the
				// master orphans its block now instead of when its deadline
				// expires; a panic looks to the master exactly like a crash.
				recover()
				if !ok {
					_ = master.Send(master.Rank(), mp.TagDown, []float64{float64(wep.Rank())})
				}
			}()
			ok = Worker(wep, d.Model, ks, mode, nil) == nil
		}(wep)
	}
	sw, st, _, err := RunMaster(ctx, master, d.Model, ks, mode, d.MasterOptions)
	if err != nil || st.WorkerFailures > 0 {
		// Casualties may be wedged in a probe for an assignment that will
		// never come, or in a hung send; closing the world releases their
		// goroutines. A failed or recovered run's endpoints are spent
		// either way.
		for _, ep := range d.Endpoints {
			ep.Close()
		}
	}
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if d.BytesMoved != nil {
		st.BytesMoved = d.BytesMoved()
	}
	return sw, st, nil
}

// NewMP builds an MP dispatcher over a freshly created in-process world of
// the named transport — "chan" (in-process goroutine nodes, the default),
// "fifo" (the strict arrival-order MPL model) or "tcp" (a loopback
// connection from each worker to the master, tcpmp.Loopback) — with the
// given number of workers (<= 0: one). The returned cleanup closes the
// endpoints (and the tcp connections) and must be called after the final
// Run.
func NewMP(model *core.Model, transport string, workers int) (*MP, func(), error) {
	if workers <= 0 {
		workers = 1
	}
	n := workers + 1
	var eps []mp.Endpoint
	var bytes func() int64
	closeWorld := func() {}
	name := transport
	switch transport {
	case "", "chan":
		name = "chan"
		world, e, err := chanmp.New(n)
		if err != nil {
			return nil, nil, err
		}
		eps, bytes = e, world.BytesMoved
	case "fifo":
		world, e, err := fifomp.New(n)
		if err != nil {
			return nil, nil, err
		}
		eps, bytes = e, world.BytesMoved
	case "tcp":
		world, hangup, err := tcpmp.Loopback(n)
		if err != nil {
			return nil, nil, err
		}
		for _, ep := range world {
			eps = append(eps, ep)
		}
		bytes, closeWorld = world[0].BytesMoved, hangup
	default:
		return nil, nil, fmt.Errorf("dispatch: unknown transport %q", transport)
	}
	cleanup := func() {
		for _, ep := range eps {
			ep.Close()
		}
		closeWorld()
	}
	d := &MP{Model: model, Endpoints: eps, BytesMoved: bytes, MasterOptions: MasterOptions{Backend: "mp/" + name}}
	return d, cleanup, nil
}
