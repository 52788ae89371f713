package dispatch

import "plinger/internal/obs"

// Process-wide sweep metrics. Every backend reports through the same series,
// so the daemon's /metrics view of "sweeps run, modes evolved, fault ledger"
// is backend-agnostic, exactly like RunStats. Per-mode busy time is the hot
// one: workers observe it rank-sharded (obs.Histogram.ObserveShard), so the
// cost per mode is a handful of uncontended atomics — the same budget as the
// paddedTiming accounting that already runs there.
var (
	obsSweeps = obs.Default.Counter("plinger_sweeps_total", "",
		"completed dispatch sweeps (any backend)")
	obsSweepModes = obs.Default.Counter("plinger_sweep_modes_total", "",
		"wavenumber modes evolved across all sweeps")
	obsSweepSeconds = obs.Default.Histogram("plinger_sweep_seconds", "",
		"wall time of one dispatched sweep", obs.DefBuckets(), 4)
	obsModeSeconds = obs.Default.Histogram("plinger_sweep_mode_seconds", "",
		"busy seconds per evolved mode (rank-sharded)", obs.ModeBuckets(), 16)

	// The fault ledger, exported cumulatively (RunStats carries the same
	// numbers per run).
	obsFaultFailures = obs.Default.Counter("plinger_fault_worker_failures_total", "",
		"workers declared dead during sweeps")
	obsFaultReassign = obs.Default.Counter("plinger_fault_reassignments_total", "",
		"orphaned k-blocks handed to surviving workers")
	obsFaultDeadline = obs.Default.Counter("plinger_fault_deadline_misses_total", "",
		"assignment/start-up deadline expiries")
	obsFaultLocal = obs.Default.Counter("plinger_fault_local_modes_total", "",
		"modes the master recomputed after losing all workers")
)

// observeMode books one evolved mode's busy time into the process-wide
// histogram, sharded by worker rank, where the mode was evolved: a pool
// worker, an Appendix-A Worker (on its side of the wire, so a remote
// worker's modes land in its own process) or the master recomputing locally.
// The master does not book received modes again.
func observeMode(rank int, seconds float64) {
	obsModeSeconds.ObserveShard(rank-1, seconds)
}

// recordRunStats folds one finished run into the process-wide series.
func recordRunStats(st *RunStats) {
	obsSweeps.Inc()
	obsSweepModes.Add(uint64(st.Modes))
	obsSweepSeconds.Observe(st.Wallclock)
	obsFaultFailures.Add(uint64(st.WorkerFailures))
	obsFaultReassign.Add(uint64(st.Reassignments))
	obsFaultDeadline.Add(uint64(st.DeadlineMisses))
	obsFaultLocal.Add(uint64(st.LocalModes))
}
