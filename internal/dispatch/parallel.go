package dispatch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"plinger/internal/core"
)

// prebuildEvalTables builds the model's flattened evaluation tables across
// the pool's workers before a fast-engine sweep hands out its first mode
// (a no-op when the mode is not FastEvolve or the tables are already
// cached). Every dispatcher backend calls it, so the per-model table build
// is always a single parallel pass rather than a serial build inside
// whichever worker happens to evolve the first mode.
func prebuildEvalTables(m *core.Model, mode core.Params) {
	if mode.FastEvolve {
		m.EnsureEvalTables(ParallelFor)
	}
}

// ParallelFor runs body(i) for every i in [0, n) across up to workers
// goroutines (<= 0: GOMAXPROCS) and returns when all calls finish. Indices
// are handed out dynamically, so skewed per-index costs balance the same
// way the mode scheduler balances skewed wavenumbers. It is the light-weight
// fan-out for CPU-bound precomputations that are not k-mode evolutions —
// e.g. the spherical-Bessel table build of the fast C_l engine — keeping
// every parallel loop in the repository inside the dispatch subsystem.
func ParallelFor(workers, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}
