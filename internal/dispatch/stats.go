package dispatch

import "sort"

// WorkerTiming is the per-worker accounting used for Figure 1, extended with
// the fault ledger. For the MP backend Rank is the endpoint rank (1..n), and
// on a run that degraded to local recomputation the master appears under its
// own rank; the Pool backend numbers its goroutines the same way so the two
// reports line up.
type WorkerTiming struct {
	Rank    int
	Modes   int     // k values computed
	Seconds float64 // busy seconds (the paper's etime)
	Flops   float64 // model flop count
	// DeadlineMisses counts assignment (or start-up) deadlines this worker
	// blew before being declared failed (always zero for the shared-memory
	// backends).
	DeadlineMisses int
}

// paddedTiming is the in-flight per-worker accounting slot: WorkerTiming is
// 40 bytes, so three adjacent slots would share a cache line and every
// per-mode counter update by one worker would invalidate the line under
// the others' feet (false sharing). The pad spreads the slots to 128
// bytes — two lines, covering the adjacent-line prefetcher — which keeps
// each worker's counters core-local; the slots collapse to plain
// WorkerTiming values when the run finishes.
type paddedTiming struct {
	WorkerTiming
	_ [88]byte
}

// RunStats is the unified run telemetry, reproducing the quantities plotted
// in Figure 1 and tabulated in Section 5. Both backends populate every
// field with the same semantics, so executors and transports can be
// compared directly.
type RunStats struct {
	// Backend names the dispatcher that produced the run: "pool" or
	// "pool/shared", or for a master/worker run "mp/<transport>" or "farm".
	Backend string
	// NWorkers is the number of computing workers; NProc additionally
	// counts the master for MP runs (the paper's "processors").
	NWorkers, NProc int
	// Modes is the number of wavenumbers evolved.
	Modes int

	Wallclock  float64 // seconds
	TotalCPU   float64 // sum of busy seconds over workers
	Efficiency float64 // TotalCPU / (Wallclock * NWorkers)
	TotalFlops float64
	FlopRate   float64 // flop/s = TotalFlops / Wallclock

	// BytesMoved is the message payload volume (zero for the shared-memory
	// pool, where no bytes cross a transport).
	BytesMoved int64

	// Workers holds the per-worker tallies. The shared-memory pool lists
	// the ranks that ran at least one mode: a worker a grid with fewer
	// blocks than workers left idle has no entry (the master/worker
	// backends list every worker that asked for work).
	Workers []WorkerTiming

	// Fault-tolerance ledger (all zero on an undisturbed run; only the MP
	// backend with an assignment deadline can populate it).
	WorkerFailures int // workers declared dead during the run
	Reassignments  int // orphaned k-blocks handed to surviving workers
	DeadlineMisses int // assignment/start-up deadline expiries
	LocalModes     int // modes the master recomputed after losing all workers
}

// finalize derives the aggregate quantities from the per-worker timings,
// the single formula shared by both backends.
func (st *RunStats) finalize() {
	sort.Slice(st.Workers, func(a, b int) bool {
		return st.Workers[a].Rank < st.Workers[b].Rank
	})
	st.TotalCPU, st.TotalFlops, st.Modes = 0, 0, 0
	for _, w := range st.Workers {
		st.TotalCPU += w.Seconds
		st.TotalFlops += w.Flops
		st.Modes += w.Modes
	}
	n := st.NWorkers
	if n < 1 {
		n = 1
	}
	if st.Wallclock > 0 {
		st.Efficiency = st.TotalCPU / (st.Wallclock * float64(n))
		st.FlopRate = st.TotalFlops / st.Wallclock
	}
}
