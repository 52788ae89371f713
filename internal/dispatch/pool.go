package dispatch

import (
	"context"

	"plinger/internal/core"
)

// Pool is the shared-memory backend for a single sweep: a SharedPool
// started for the one run and closed when it returns, so it hands out the
// same largest-first order (which shrinks the end-of-run idle tail on a
// skewed grid) and applies the same per-k adaptive hierarchy cutoff.
type Pool struct {
	Model *core.Model
	// Workers bounds the goroutine pool (<= 0: GOMAXPROCS).
	Workers int
	// AdaptLMax reduces the hierarchy cutoff per wavenumber via PerKLMax,
	// with mode.LMax as the global cap.
	AdaptLMax bool
}

// Run implements Dispatcher.
func (p *Pool) Run(ctx context.Context, ks []float64, mode core.Params) (*Sweep, *RunStats, error) {
	sp := NewSharedPool(p.Workers)
	defer sp.Close()
	sp.backend = "pool"
	return sp.Sweep(ctx, p.Model, ks, mode, p.AdaptLMax)
}
