package dispatch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"plinger/internal/core"
	"plinger/internal/obs"
)

// SharedPool is the shared-memory worker pool, the analogue of the Cray
// Autotasking parallelism of Section 3: the worker goroutines start once
// and then serve every Sweep call for the life of the pool, whatever model
// it names, so a daemon handling many spectrum requests pays the pool
// spin-up once per process instead of once per request or per cosmology,
// and concurrent sweeps interleave their wavenumbers onto the same workers
// (a natural admission batcher — two half-idle sweeps fill each other's
// gaps instead of oversubscribing the machine with two full pools). Pool is
// this type started for one run.
//
// Sweep is safe for concurrent callers; each call gets its own results and
// telemetry. Close waits for the sweeps in flight and then stops the
// workers; Sweep after Close returns an error.
type SharedPool struct {
	workers int
	backend string // RunStats.Backend: "pool/shared", or "pool" under Pool.Run

	jobs chan sharedJob
	quit chan struct{}

	mu       sync.Mutex
	closed   bool           // under mu: no sweep may start
	sweeps   sync.WaitGroup // sweeps in flight, which Close waits for
	stopOnce sync.Once
}

// sharedJob is one assignment: the run it belongs to and a contiguous
// chunk of hand-out-order indices into its blocks (see handOutChunks).
type sharedJob struct {
	run  *sharedRun
	idxs []int
}

// sharedRun is the per-Run state the workers report into. Timings live in
// one padded slot per worker rank, so workers book completed modes without
// a lock and without false sharing; only the first error takes the mutex.
type sharedRun struct {
	model   *core.Model
	ks      []float64
	mode    core.Params
	perk    []int
	results []*core.Result
	// blocks are the [lo, hi) grid-index blocks job indices name.
	blocks [][2]int

	ctx    context.Context
	cancel context.CancelFunc

	timings []paddedTiming // indexed by rank-1

	mu  sync.Mutex
	err error
	wg  sync.WaitGroup
}

// fail records the first error and cancels the rest of the run.
func (r *sharedRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// record books one completed mode against the worker that ran it.
func (r *sharedRun) record(rank int, res *core.Result) {
	t := &r.timings[rank-1].WorkerTiming
	t.Rank = rank
	t.Modes++
	t.Seconds += res.Seconds
	t.Flops += res.Flops
	observeMode(rank, res.Seconds)
}

// NewSharedPool starts a persistent pool of workers (<= 0: GOMAXPROCS);
// every sweep names the model its modes evolve.
func NewSharedPool(workers int) *SharedPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &SharedPool{
		workers: workers,
		backend: "pool/shared",
		jobs:    make(chan sharedJob),
		quit:    make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		go p.worker(w + 1)
	}
	return p
}

func (p *SharedPool) worker(rank int) {
	// The worker's arena lives as long as the pool: every mode of every
	// run this goroutine serves, of any model, reuses one set of evolution
	// buffers (an arena carries no model state between modes).
	sc := core.NewScratch()
	for {
		var job sharedJob
		select {
		case job = <-p.jobs:
		case <-p.quit:
			return
		}
		if !p.serveJob(rank, job, sc) {
			// The panic may have left the arena's buffers half-written;
			// retire it so later runs start from clean state.
			sc = core.NewScratch()
		}
		job.run.wg.Done()
	}
}

// serveJob runs one assignment; it reports false when the job panicked, in
// which case the run has been failed (with the worker rank and grid index)
// and the worker goroutine — which must outlive any single run — carries on.
func (p *SharedPool) serveJob(rank int, job sharedJob, sc *core.Scratch) (ok bool) {
	run := job.run
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			run.fail(fmt.Errorf("dispatch: pool worker %d panicked on mode index %d: %v", rank, cur, r))
			ok = false
		}
	}()
	ok = true
	for _, idx := range job.idxs {
		if run.ctx.Err() != nil {
			break
		}
		lo, hi := run.blocks[idx][0], run.blocks[idx][1]
		cur = lo
		var perk []int
		if run.perk != nil {
			perk = run.perk[lo:hi]
		}
		rs, err := run.model.EvolveBatchWith(run.ks[lo:hi], run.mode, perk, sc)
		if err != nil {
			name := fmt.Sprintf("k=%g", run.ks[lo])
			if hi-lo > 1 {
				name = fmt.Sprintf("batch k=%g..%g", run.ks[lo], run.ks[hi-1])
			}
			run.fail(fmt.Errorf("dispatch: %s: %w", name, err))
			break
		}
		for j, r := range rs {
			run.results[lo+j] = r
			run.record(rank, r)
		}
	}
	return ok
}

// Sweep implements Executor: it enqueues the grid's blocks of model onto
// the shared workers (largest-first, batched into contiguous chunks — see
// handOutChunks) and waits for the sweep to finish. Multiple concurrent
// Sweep calls, of one model or of several, interleave fairly at chunk
// granularity.
func (p *SharedPool) Sweep(ctx context.Context, model *core.Model, ks []float64, mode core.Params, adaptLMax bool) (*Sweep, *RunStats, error) {
	if model == nil {
		return nil, nil, fmt.Errorf("dispatch: sweep has no model")
	}
	if len(ks) == 0 {
		return nil, nil, fmt.Errorf("dispatch: empty wavenumber grid")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, nil, fmt.Errorf("dispatch: shared pool is closed")
	}
	p.sweeps.Add(1)
	p.mu.Unlock()
	defer p.sweeps.Done()

	tr := obs.TraceFrom(ctx)
	tau0 := sweepTau0(model, mode)
	spTables := tr.Start("eval_tables")
	prebuildEvalTables(model, mode)
	spTables.End()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &sharedRun{
		model:   model,
		ks:      ks,
		mode:    mode,
		perk:    perKLMaxTable(ks, tau0, mode.LMax, adaptLMax),
		results: make([]*core.Result, len(ks)),
		blocks:  batchBlocks(len(ks), mode.KBatch),
		ctx:     rctx,
		cancel:  cancel,
		timings: make([]paddedTiming, p.workers),
	}
	chunks := handOutChunks(blockOrder(ks, run.blocks), p.workers)

	spModes := tr.Start("modes")
	start := time.Now()
	run.wg.Add(len(chunks))
	enqueued := 0
feed:
	for _, c := range chunks {
		select {
		case p.jobs <- sharedJob{run: run, idxs: c}:
			enqueued++
		case <-rctx.Done():
			break feed
		}
	}
	// Balance the Add for chunks never handed to a worker.
	for n := enqueued; n < len(chunks); n++ {
		run.wg.Done()
	}
	run.wg.Wait()
	spModes.End()

	run.mu.Lock()
	err := run.err
	run.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	st := &RunStats{
		Backend:   p.backend,
		NWorkers:  p.workers,
		NProc:     p.workers,
		Wallclock: time.Since(start).Seconds(),
	}
	for i := range run.timings {
		if t := run.timings[i].WorkerTiming; t.Modes > 0 {
			st.Workers = append(st.Workers, t)
		}
	}
	st.finalize()
	recordRunStats(st)
	sw := &Sweep{
		KValues: append([]float64(nil), ks...),
		Results: run.results,
		Tau0:    tau0,
	}
	return sw, st, nil
}

// Close waits for the sweeps in flight to finish and then stops the
// workers. It is idempotent.
func (p *SharedPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.sweeps.Wait()
	p.stopOnce.Do(func() { close(p.quit) })
}
