package dispatch

import (
	"context"
	"io"
	"time"

	"plinger/internal/core"
	"plinger/internal/mp"
	"plinger/internal/obs"
	runner "plinger/internal/plinger"
)

// MasterOptions is what a backend decides about one RunMaster sweep.
type MasterOptions struct {
	// Backend labels RunStats.Backend ("mp/tcp", "farm").
	Backend string
	// Schedule is the hand-out order (zero value: largest-first).
	Schedule Schedule
	// AdaptLMax reduces the hierarchy cutoff per wavenumber via PerKLMax;
	// the per-mode cutoff rides along in the assignment message.
	AdaptLMax bool
	// AssignDeadline, when > 0, turns on the fault-tolerant master: each
	// assignment round trip (and each worker's start-up) is bounded, dead
	// or hung workers have their blocks reassigned, and the master
	// recomputes locally if every worker is lost. A deadline on the context
	// also activates it (the tighter of the two budgets wins).
	AssignDeadline time.Duration
	// ASCIIOut and BinaryOut receive the unit_1/unit_2 style outputs.
	ASCIIOut, BinaryOut io.Writer
}

// assignDeadline is the budget a master runs under: the tighter of the
// backend's own and what is left of the context's. Positive arms recovery.
func assignDeadline(ctx context.Context, own time.Duration) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 && (own == 0 || rem < own) {
			return rem
		}
	}
	return own
}

// RunMaster is the one driver of the Appendix-A master (runner.Master): the
// in-process MP dispatcher and the worker farm both hand it the master's
// endpoint of a world whose workers they own. It decides the hand-out order
// and the per-k cutoffs, prebuilds the evaluation tables, runs the protocol
// and turns its tallies into a Sweep and RunStats; the ranks the master
// declared dead come back too, for callers that keep their workers. The
// master's probes watch no context, so when ctx ends mid-run the endpoint is
// closed — every pending probe then returns mp.ErrClosed — and the error is
// the context's.
func RunMaster(ctx context.Context, ep mp.Endpoint, model *core.Model, ks []float64, mode core.Params, o MasterOptions) (*Sweep, *RunStats, []int, error) {
	tau0 := sweepTau0(model, mode)
	cfg := runner.Config{
		KValues:        ks,
		Mode:           mode,
		Order:          blockOrder(o.Schedule, ks, batchBlocks(len(ks), mode.KBatch)),
		PerKLMax:       perKLMaxTable(ks, tau0, mode.LMax, o.AdaptLMax),
		ASCIIOut:       o.ASCIIOut,
		BinaryOut:      o.BinaryOut,
		AssignDeadline: assignDeadline(ctx, o.AssignDeadline),
	}
	tr := obs.TraceFrom(ctx)
	sp := tr.Start("eval_tables")
	prebuildEvalTables(model, mode)
	sp.End()

	stop := context.AfterFunc(ctx, func() { ep.Close() })
	sp = tr.Start("modes")
	res, err := runner.Master(ep, model, cfg)
	sp.End()
	stop()
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, nil, nil, err
	}

	st := &RunStats{
		Backend:        o.Backend,
		Schedule:       o.Schedule,
		NProc:          res.NProc,
		NWorkers:       max(res.NProc-1, 1),
		Wallclock:      res.Wallclock,
		BytesMoved:     res.BytesReceived,
		WorkerFailures: res.WorkerFailures,
		Reassignments:  res.Reassignments,
		DeadlineMisses: res.DeadlineMisses,
		LocalModes:     res.LocalModes,
	}
	for _, w := range res.Workers {
		st.Workers = append(st.Workers, WorkerTiming(w))
	}
	st.finalize()
	recordRunStats(st)
	sw := &Sweep{
		KValues: append([]float64(nil), ks...),
		Results: res.Mode,
		Tau0:    tau0,
	}
	return sw, st, res.FailedRanks, nil
}
