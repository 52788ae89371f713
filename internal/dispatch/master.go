package dispatch

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"plinger/internal/core"
	"plinger/internal/mp"
	"plinger/internal/obs"
)

// MasterOptions is what a backend decides about one RunMaster sweep.
type MasterOptions struct {
	// Backend labels RunStats.Backend ("mp/tcp", "farm").
	Backend string
	// AdaptLMax reduces the hierarchy cutoff per wavenumber via PerKLMax;
	// the per-mode cutoff rides along in the assignment message.
	AdaptLMax bool
	// AssignDeadline, when > 0, turns on the fault-tolerant master: each
	// assignment round trip (and each worker's start-up) is bounded, dead
	// or hung workers have their blocks reassigned, and the master
	// recomputes locally if every worker is lost. A deadline on the context
	// also activates it (the tighter of the two budgets wins). Zero keeps
	// the paper's original semantics: no fault tolerance, one lost worker
	// stalls the run.
	AssignDeadline time.Duration
	// ASCIIOut and BinaryOut receive the unit_1/unit_2 style outputs: one
	// line of 20 summary values per mode, and each moment block as a
	// length-prefixed little-endian record.
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

// RunMaster runs the master subroutine of Appendix A over the endpoint of a
// world whose workers the caller owns: the in-process MP dispatcher and the
// worker farm both drive it. It hands the blocks out largest-first
// (blockOrder), decides the per-k cutoffs, prebuilds the evaluation tables,
// runs the protocol until every wavenumber has been received and every
// worker stopped, and returns the Sweep and RunStats; the ranks the master
// declared dead come back too, for callers that keep their workers. The
// master's probes watch no context, so when ctx ends mid-run the endpoint
// is closed — every pending probe then returns mp.ErrClosed — and the
// error is the context's.
//
// With a deadline armed (see MasterOptions.AssignDeadline) the master
// detects worker failures (crashes, hangs, protocol violations, TagDown
// death reports) and recovers: orphaned blocks are reassigned to survivors,
// and with no survivors the master recomputes them itself. Recovery always
// re-runs the WHOLE original block — a block's lockstep trajectories depend
// on every member, so partial re-batching would change bits — and duplicate
// results are resolved first-wins, so every mode being a pure function of
// (k, mode, lmax) keeps a recovered sweep bitwise-identical to an
// undisturbed one.
func RunMaster(ctx context.Context, ep mp.Endpoint, model *core.Model, ks []float64, mode core.Params, o MasterOptions) (*Sweep, *RunStats, []int, error) {
	if len(ks) == 0 {
		return nil, nil, nil, fmt.Errorf("dispatch: no wavenumbers to distribute")
	}
	tau0 := sweepTau0(model, mode)
	mode.TauEnd = tau0
	blocks := batchBlocks(len(ks), mode.KBatch)
	m := &master{
		ep: ep, model: model, ks: ks, mode: mode, o: o,
		deadline: assignDeadline(ctx, o.AssignDeadline),
		blocks:   blocks,
		order:    blockOrder(ks, blocks),
		perk:     perKLMaxTable(ks, tau0, mode.LMax, o.AdaptLMax),
		peers:    map[int]*peer{},
		workers:  map[int]*WorkerTiming{},
		results:  make([]*core.Result, len(ks)),
		st:       &RunStats{Backend: o.Backend, NProc: ep.Size(), NWorkers: max(ep.Size()-1, 1)},
	}
	tr := obs.TraceFrom(ctx)
	sp := tr.Start("eval_tables")
	prebuildEvalTables(model, mode)
	sp.End()

	stop := context.AfterFunc(ctx, func() { ep.Close() })
	sp = tr.Start("modes")
	err := m.run()
	sp.End()
	stop()
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, nil, nil, err
	}
	for _, w := range m.workers {
		m.st.Workers = append(m.st.Workers, *w)
	}
	m.st.finalize()
	recordRunStats(m.st)
	sw := &Sweep{KValues: append([]float64(nil), ks...), Results: m.results, Tau0: tau0}
	return sw, m.st, m.failed, nil
}

// master is the state of one RunMaster run.
type master struct {
	ep    mp.Endpoint
	model *core.Model
	ks    []float64
	mode  core.Params // TauEnd set to the sweep's end time
	o     MasterOptions
	// deadline arms fault tolerance when > 0 (see assignDeadline).
	deadline time.Duration
	blocks   [][2]int
	order    []int // hand-out order over blocks
	perk     []int // per-k cutoffs, nil: the broadcast one
	next     int   // position in order
	// orphans holds blocks whose owner failed; they are handed out ahead of
	// fresh work.
	orphans   []int
	computing int // live workers holding a block
	live      int // workers neither failed nor stopped
	done      int // modes booked
	peers     map[int]*peer
	workers   map[int]*WorkerTiming
	results   []*core.Result
	st        *RunStats // the ledger and byte count, filled as the run goes
	failed    []int     // ranks declared dead, in declaration order
}

// peer is the master's view of one worker.
type peer struct {
	stopped, failed bool
	// block is the block the worker holds and left counts its members still
	// outstanding (0: it holds none), so a batched assignment triggers
	// exactly one follow-up hand-out, after its last member.
	block, left int
	// due is when the worker's next message must arrive under fault
	// tolerance (zero: nothing is due): first its start-up request, then
	// progress on its block.
	due time.Time
	// sum and mom assemble the worker's current mode. A result arrives as
	// two or three messages (summary, moments, optionally sources), messages
	// from different workers interleave arbitrarily — and a strict
	// arrival-order (MPL-style) transport can only ever deliver the head of
	// the queue — so the master consumes every message in arrival order and
	// assembles records per worker.
	sum, mom []float64
}

// ft reports whether fault tolerance is armed.
func (m *master) ft() bool { return m.deadline > 0 }

// run broadcasts the run parameters and serves messages until every mode is
// in and every worker stopped.
func (m *master) run() error {
	start := time.Now()
	for rank := 0; rank < m.ep.Size(); rank++ {
		if rank != m.ep.Master() {
			m.peers[rank] = &peer{}
			if m.ft() {
				m.peers[rank].due = start.Add(m.deadline)
			}
		}
	}
	m.live = len(m.peers)

	// Broadcast initial data (tag 1): end time, lmax, nk, gauge, rtol,
	// keep-sources flag.
	keep := 0.0
	if m.mode.KeepSources {
		keep = 1.0
	}
	init := []float64{m.mode.TauEnd, float64(m.mode.LMax), float64(len(m.ks)),
		float64(m.mode.Gauge), m.mode.RTol, keep}
	if len(init) != initBlockLen {
		panic("dispatch: init block length drifted from the protocol")
	}
	if err := m.ep.Bcast(mp.TagInit, init); err != nil && !m.ft() {
		// Under fault tolerance a worker unreachable at broadcast time is a
		// worker failure, not a run failure: whoever missed the init never
		// requests work and falls to its start-up deadline.
		return fmt.Errorf("dispatch: broadcast: %w", err)
	}

	// Every worker sends exactly one request after the init, and one that
	// comes after the last block went out is answered with a stop, so the
	// loop runs until every mode is in and every worker stopped. Under fault
	// tolerance it also waits out live workers still holding a block past
	// done == nk — possible when a reassigned block's members were first-won
	// by its dead previous owner. Like the paper's protocol the plain path
	// has no fault tolerance: a worker that joined the world but died before
	// its first request stalls it.
	for m.done < len(m.ks) || m.computing > 0 || m.live > 0 {
		if m.ft() && m.live == 0 {
			// Nobody left to compute or request: finish the sweep locally
			// rather than stall (the paper: "this has no fault tolerance" —
			// this path is precisely what it lacked).
			if err := m.recomputeLocal(); err != nil {
				return err
			}
			break
		}
		tag, src, ok, err := m.probe()
		if err != nil {
			return fmt.Errorf("dispatch: master probe: %w", err)
		}
		if !ok {
			m.expire(time.Now())
			continue
		}
		msg, err := m.ep.Recv(tag, src)
		if err != nil {
			return err
		}
		if err := m.receive(msg); err != nil {
			return err
		}
	}
	m.st.Wallclock = time.Since(start).Seconds()
	return nil
}

// receive is the master's one handler for a message, whoever sent it.
func (m *master) receive(msg mp.Message) error {
	tag, src := msg.Tag, msg.Source
	if m.ft() && tag == mp.TagDown && src == m.ep.Rank() && len(msg.Data) == 1 {
		m.fail(int(msg.Data[0])) // a death report, see mp.TagDown
		return nil
	}
	m.st.BytesMoved += int64(8 * len(msg.Data))
	p := m.peers[src]
	if m.ft() && p != nil && (p.failed || p.stopped) {
		// A worker declared dead may still be alive (a blown deadline on a
		// slow link). Its work was reassigned; discard the duplicates and,
		// if it asks for more, tell it to exit.
		if tag == mp.TagRequest {
			_ = m.ep.Send(src, mp.TagStop, []float64{0})
		}
		return nil
	}
	if m.ft() && p != nil && p.left > 0 {
		// Any message is progress: the deadline bounds silence, so a worker
		// grinding through a long block stays alive as long as its members
		// keep arriving.
		p.due = time.Now().Add(m.deadline)
	}
	switch {
	case p == nil || p.stopped: // nothing is expected from it
	case tag == mp.TagRequest && p.left == 0:
		m.touch(src)
		return m.assign(src, p)
	case tag == mp.TagSummary && p.left > 0 && p.sum == nil:
		p.sum = msg.Data
		return nil
	case tag == mp.TagMoments && p.sum != nil && p.mom == nil:
		p.mom = msg.Data
		if m.mode.KeepSources {
			return nil
		}
		return m.complete(src, p, nil)
	case tag == mp.TagSources && p.mom != nil:
		return m.complete(src, p, msg.Data)
	}
	return m.fault(src, fmt.Errorf("unexpected tag %d", tag))
}

// complete decodes the mode the worker has assembled, books it, and hands
// the worker its next block once the current one is done.
func (m *master) complete(src int, p *peer, sources []float64) error {
	sum, mom := p.sum, p.mom
	p.sum, p.mom = nil, nil
	ik1, r, err := unpackResult(sum, mom)
	if err == nil && ik1 > len(m.ks) {
		err = fmt.Errorf("wavenumber index %d out of range", ik1)
	}
	if err == nil && m.mode.KeepSources {
		r.Sources, err = unpackSources(ik1, sources)
	}
	if err != nil {
		return m.fault(src, err)
	}
	if err := m.accept(src, ik1-1, r, sum, mom); err != nil {
		return err
	}
	p.left--
	if p.left > 0 {
		return nil // more members of this worker's block are in flight
	}
	m.computing--
	return m.assign(src, p)
}

// accept books mode ik, received from a worker or recomputed by the master
// alike. The first copy wins: a reassigned block re-runs members its dead
// owner may already have delivered, with identical bits either way (a mode
// is a pure function of k). A booked mode is tallied to rank and written to
// the unit_1 and unit_2 outputs.
func (m *master) accept(rank, ik int, r *core.Result, sum, mom []float64) error {
	if m.results[ik] != nil {
		return nil
	}
	m.results[ik] = r
	m.done++
	w := m.touch(rank)
	w.Modes++
	w.Seconds += r.Seconds
	w.Flops += r.Flops
	if m.o.ASCIIOut != nil {
		if err := writeASCIIRecord(m.o.ASCIIOut, sum); err != nil {
			return err
		}
	}
	if m.o.BinaryOut != nil {
		return writeBinaryRecord(m.o.BinaryOut, mom)
	}
	return nil
}

// assign hands the worker its next block — an orphan first, then the
// hand-out order — or, with none left, a stop.
func (m *master) assign(dst int, p *peer) error {
	bi := -1
	if len(m.orphans) > 0 {
		bi, m.orphans = m.orphans[0], m.orphans[1:]
		m.st.Reassignments++
	} else if m.next < len(m.order) {
		bi = m.order[m.next]
		m.next++
	}
	if bi < 0 {
		p.stopped = true
		m.live--
		p.due = time.Time{}
		if err := m.ep.Send(dst, mp.TagStop, []float64{0}); err != nil && !m.ft() {
			return err
		}
		return nil // under fault tolerance an unreachable worker is stopped all the same
	}
	lo, hi := m.blocks[bi][0], m.blocks[bi][1]
	p.block, p.left = bi, hi-lo
	m.computing++
	if m.ft() {
		p.due = time.Now().Add(m.deadline)
	}
	// The Fortran sends the 1-based wavenumber index; the second value is
	// the per-k hierarchy cutoff, and a batched assignment adds the block
	// size.
	payload := []float64{float64(lo + 1), float64(m.blockLMax(lo, hi)), float64(hi - lo)}
	if hi-lo == 1 {
		payload = payload[:2]
	}
	if err := m.ep.Send(dst, mp.TagAssign, payload); err != nil {
		if !m.ft() {
			return err
		}
		// The transport already knows this worker is gone; orphan the block
		// for the next live requester.
		m.fail(dst)
	}
	return nil
}

// blockLMax is the cutoff a block runs at: the largest per-k one among its
// members (the lockstep batch unifies the hierarchy anyway), 0 for the
// broadcast one.
func (m *master) blockLMax(lo, hi int) int {
	if m.perk == nil {
		return 0
	}
	return max(0, slices.Max(m.perk[lo:hi]))
}

// fault is the master's one verdict on a worker that broke the protocol or
// sent a block that does not decode: under fault tolerance the worker is
// failed and its block reassigned, otherwise the run ends with the error.
func (m *master) fault(rank int, err error) error {
	if !m.ft() {
		return fmt.Errorf("dispatch: worker %d: %w", rank, err)
	}
	m.fail(rank)
	return nil
}

// fail declares a live worker dead under fault tolerance: its half-assembled
// mode is discarded and its block joins the orphans for a full re-run (the
// lockstep batch ties every trajectory to the whole block, so resuming
// mid-block would change bits).
func (m *master) fail(rank int) {
	p := m.peers[rank]
	if !m.ft() || p == nil || p.failed || p.stopped {
		return
	}
	p.failed = true
	m.live--
	m.st.WorkerFailures++
	m.failed = append(m.failed, rank)
	p.due = time.Time{}
	p.sum, p.mom = nil, nil
	if p.left > 0 {
		m.computing--
		p.left = 0
		m.orphans = append(m.orphans, p.block)
	}
}

// expire fails every worker whose next message is overdue.
func (m *master) expire(now time.Time) {
	for rank, p := range m.peers {
		if !p.due.IsZero() && !p.due.After(now) {
			m.st.DeadlineMisses++
			m.touch(rank).DeadlineMisses++
			m.fail(rank)
		}
	}
}

// probe waits for the next message, under fault tolerance no longer than
// the earliest due one; ok=false reports that it came due instead.
func (m *master) probe() (tag, src int, ok bool, err error) {
	var due time.Time
	for _, p := range m.peers {
		if !p.due.IsZero() && (due.IsZero() || p.due.Before(due)) {
			due = p.due
		}
	}
	if !due.IsZero() {
		wait := time.Until(due)
		if wait <= 0 {
			return 0, 0, false, nil
		}
		return m.ep.ProbeTimeout(mp.AnyTag, mp.AnySource, wait)
	}
	tag, src, err = m.ep.Probe(mp.AnyTag, mp.AnySource)
	return tag, src, err == nil, err
}

func (m *master) touch(rank int) *WorkerTiming {
	w := m.workers[rank]
	if w == nil {
		w = &WorkerTiming{Rank: rank}
		m.workers[rank] = w
	}
	return w
}

// recomputeLocal is the last-resort degradation: with every worker lost,
// the master evolves the remaining blocks itself, mirroring the worker's
// exact evolution call so the results stay bitwise-identical.
func (m *master) recomputeLocal() error {
	rem := append(m.orphans, m.order[m.next:]...)
	m.orphans, m.next = nil, len(m.order)
	scratch := core.NewScratch()
	self := m.ep.Rank()
	for _, bi := range rem {
		lo, hi := m.blocks[bi][0], m.blocks[bi][1]
		p := m.mode
		p.K = m.ks[lo]
		if lm := m.blockLMax(lo, hi); lm > 0 {
			p.LMax = lm
		}
		rs, err := func() (rs []*core.Result, err error) {
			// The degradation path runs on the master's own stack; a
			// panicking evolution must fail the run, not the process —
			// symmetric with the worker goroutines' recovery.
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return m.model.EvolveBatchWith(m.ks[lo:hi], p, nil, scratch)
		}()
		if err != nil {
			return fmt.Errorf("dispatch: local recompute (ik=%d+%d): %w", lo+1, hi-lo, err)
		}
		for j, r := range rs {
			ik := lo + j
			if m.results[ik] != nil {
				continue // first-wins against results received earlier
			}
			m.st.LocalModes++
			observeMode(self, r.Seconds)
			if err := m.accept(self, ik, r, packSummary(ik+1, r), packMoments(ik+1, r)); err != nil {
				return err
			}
		}
	}
	return nil
}
