// Package dispatch is the parallel-execution subsystem: every fan-out over
// independent k modes in the repository runs through a Dispatcher. The
// paper's central observation (Section 3) is that the per-k linear GR
// computation parallelizes embarrassingly and that three concerns are
// separable:
//
//   - scheduling — which wavenumber is handed out next: the paper's one
//     policy, largest k first (Section 5.2), which both executors follow
//     (blockOrder) and which no caller selects;
//   - transport — shared memory versus message passing over PVM/MPI/MPL,
//     expressed by the two executors: SharedPool (the shared-memory worker
//     pool, the Cray Autotasking analogue, one per process serving sweeps
//     of any model; Pool is one started for a single run) and RunMaster
//     (the master of the Appendix A master/worker protocol over any
//     mp.Endpoint transport, driven by MP for in-process worlds and by
//     internal/farm for supervised worker processes, whose workers run
//     Worker); SharedPool and the farm's Supervisor are both Executors;
//   - accounting — wallclock, per-worker busy time, parallel efficiency and
//     flop rate (Figure 1 / Section 5.1), expressed by RunStats and
//     populated identically by both.
//
// The unit of work is the same everywhere: a block of mode.KBatch
// neighbouring wavenumbers evolved in lockstep, a single wavenumber being a
// block of one.
//
// Higher layers (spectra sweeps, the facade's ComputeSpectrum, MatterPower
// and RunParallel, the cmd/ drivers) choose a Dispatcher and never touch
// goroutines or endpoints themselves.
package dispatch

import (
	"context"
	"sort"

	"plinger/internal/core"
)

// Dispatcher evolves every wavenumber in ks with the template parameters
// mode (mode.K is overwritten per assignment) and returns the results in
// input order together with the run telemetry. Implementations must be
// deterministic: the Results depend only on (ks, mode), never on worker
// count, hand-out order or transport.
type Dispatcher interface {
	Run(ctx context.Context, ks []float64, mode core.Params) (*Sweep, *RunStats, error)
}

// Executor is a long-lived sweep executor that serves any model: each
// Sweep names the model and whether the hierarchy cutoff adapts per
// wavenumber, and hands the wavenumbers out largest-first (the paper's
// policy), under Dispatcher's determinism contract.
type Executor interface {
	Sweep(ctx context.Context, model *core.Model, ks []float64, mode core.Params, adaptLMax bool) (*Sweep, *RunStats, error)
}

// Sweep is the raw outcome of a dispatched run: one result per wavenumber,
// ordered like ks. The science post-processing (C_l assembly, transfer
// functions) lives in package spectra, which wraps this type.
type Sweep struct {
	KValues []float64
	Results []*core.Result
	// Tau0 is the final conformal time of the sweep (the conformal age
	// unless mode.TauEnd cut the evolution short).
	Tau0 float64
}

// PerKLMax returns the hierarchy cutoff actually needed for wavenumber k:
// moments beyond ~ k tau_0 receive no power, so small k can run with far
// smaller hierarchies. This is why the paper's per-mode messages vary from
// 150 bytes to 80 kbyte and why CPU time grows with k. Both backends use it
// when adaptive hierarchies are enabled.
func PerKLMax(k, tau0 float64, lmaxGlobal int) int {
	l := int(1.5*k*tau0) + 60
	if l > lmaxGlobal {
		return lmaxGlobal
	}
	if l < 8 {
		l = 8
	}
	return l
}

// StartPrebuild launches a precomputation concurrently with whatever the
// caller does next — typically a sweep, on any Dispatcher — and returns the
// wait function to defer: whichever of the two finishes first, the caller
// goes on only when both are done.
func StartPrebuild(fn func()) func() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return func() { <-done }
}

// sweepTau0 returns the final conformal time of a run.
func sweepTau0(model *core.Model, mode core.Params) float64 {
	if mode.TauEnd > 0 {
		return mode.TauEnd
	}
	return model.BG.Tau0()
}

// Chunked hand-out: on fine wavenumber grids the per-mode channel
// rendezvous between the feeder and the workers becomes measurable next to
// the (cheap, arena-backed) mode evolutions, so the pool hands out
// contiguous runs of the hand-out order instead of single indices. The
// chunk size splits every worker's fair share chunkDivisor ways — small
// enough that the largest-first end-of-run tail still balances, large
// enough that a 5000-mode sweep does ~400 channel operations instead of
// 5000 — and is capped so pathological grids cannot serialize a worker.
// Chunking is pure hand-out mechanics: the hand-out order, the results and
// the telemetry are identical to per-mode hand-out.
const (
	chunkDivisor = 8
	maxChunk     = 16
)

// handOutChunks splits a hand-out order into the contiguous chunks the
// feeder sends; every chunk is a subslice, so no copying happens.
func handOutChunks(order []int, workers int) [][]int {
	n := len(order)
	size := n / (workers * chunkDivisor)
	if size < 1 {
		size = 1
	}
	if size > maxChunk {
		size = maxChunk
	}
	chunks := make([][]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		chunks = append(chunks, order[lo:hi:hi])
	}
	return chunks
}

// batchBlocks splits nk grid indices into consecutive [lo, hi) blocks of up
// to b members each — the unit of hand-out for lockstep batched evolution
// (core.EvolveBatchWith). Blocks follow the input order of the grid (block j
// covers indices [j*b, min((j+1)*b, nk))), so the decomposition — and with
// it every batched trajectory — depends only on (nk, b), never on hand-out
// order or transport: every backend evolves bitwise-identical blocks,
// exactly as the Dispatcher contract demands. b <= 1 yields one block per
// index.
func batchBlocks(nk, b int) [][2]int {
	if b < 1 {
		b = 1
	}
	blocks := make([][2]int, 0, (nk+b-1)/b)
	for lo := 0; lo < nk; lo += b {
		blocks = append(blocks, [2]int{lo, min(lo+b, nk)})
	}
	return blocks
}

// blockOrder is the hand-out order of blocks, the paper's policy (Section
// 5.2): "since larger wavenumbers require greater computation, one simple
// method by which we minimized this idle time was to compute the largest k
// first". Each block is represented by its largest member — a block's cost
// is set by its largest k, which drives the unified hierarchy cutoff and
// the tight-coupling window — and ties keep grid order (stable sort), so
// the order is deterministic. Results never depend on it; only the
// end-of-run idle tail does.
func blockOrder(ks []float64, blocks [][2]int) []int {
	reps := make([]float64, len(blocks))
	order := make([]int, len(blocks))
	for j, blk := range blocks {
		rep := ks[blk[0]]
		for _, k := range ks[blk[0]+1 : blk[1]] {
			if k > rep {
				rep = k
			}
		}
		reps[j] = rep
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reps[order[a]] > reps[order[b]]
	})
	return order
}

// perKLMaxTable precomputes the per-index hierarchy cutoffs for a run, or
// returns nil when the global cutoff applies to every mode.
func perKLMaxTable(ks []float64, tau0 float64, lmaxGlobal int, adapt bool) []int {
	if !adapt {
		return nil
	}
	t := make([]int, len(ks))
	for i, k := range ks {
		t[i] = PerKLMax(k, tau0, lmaxGlobal)
	}
	return t
}
