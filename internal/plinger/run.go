package plinger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"plinger/internal/core"
	"plinger/internal/mp"
	"plinger/internal/obs"
)

// obsModeSeconds is the process-wide per-mode busy-time histogram, the same
// series the dispatch backends observe into (get-or-create on obs.Default
// resolves both registrations to one histogram). The MP worker loop books
// here because its evolutions happen on the worker side of the wire, outside
// any dispatch accounting; the master does not book received modes again.
var obsModeSeconds = obs.Default.Histogram("plinger_sweep_mode_seconds", "",
	"busy seconds per evolved mode (rank-sharded)", obs.ModeBuckets(), 16)

// Config describes one parallel run. Scheduling policy is not decided
// here: internal/dispatch computes the hand-out order and this package only
// speaks the wire protocol.
type Config struct {
	// KValues are the wavenumbers to evolve (Mpc^-1).
	KValues []float64
	// Mode holds the per-k evolution parameters (K is overwritten).
	Mode core.Params
	// Order is the hand-out order as a permutation of indices into
	// KValues (nil: input order). When Mode.KBatch > 1 it is instead a
	// permutation of indices into BatchBlocks(len(KValues), Mode.KBatch):
	// the unit of hand-out becomes one consecutive index block.
	Order []int
	// PerKLMax optionally overrides the hierarchy cutoff per wavenumber
	// (entries <= 0 fall back to the broadcast Mode.LMax); the override
	// rides along in the tag-3 assignment message.
	PerKLMax []int
	// ASCIIOut, if non-nil, receives the unit_1-style text summary lines.
	ASCIIOut io.Writer
	// BinaryOut, if non-nil, receives the unit_2-style binary moment
	// records.
	BinaryOut io.Writer
	// AssignDeadline, when > 0, turns on the fault-tolerant master: it
	// bounds each assignment's round trip (and each worker's start-up).
	// A worker that blows the deadline — or is reported dead by a TagDown
	// message, or violates the protocol — is declared failed, its
	// in-flight block is reassigned to a surviving worker, and with no
	// survivors left the master recomputes the orphans itself. Every mode
	// is a pure function of (k, mode, lmax), so a recovered sweep is
	// bitwise-identical to an undisturbed one. Zero keeps the paper's
	// original semantics: no fault tolerance, one lost worker stalls the
	// run.
	AssignDeadline time.Duration
}

// WorkerTiming is the per-worker accounting used for Figure 1, extended
// with the fault ledger.
type WorkerTiming struct {
	Rank    int
	Modes   int     // k values computed
	Seconds float64 // busy seconds (the paper's etime)
	Flops   float64 // model flop count
	// DeadlineMisses counts assignment (or start-up) deadlines this worker
	// blew before being declared failed.
	DeadlineMisses int
}

// Results is the master's collected output, ordered like KValues, plus the
// raw run telemetry. Derived quantities (parallel efficiency, flop rate)
// are computed by internal/dispatch so that the pool and message-passing
// backends share one formula.
type Results struct {
	Mode    []*core.Result
	KValues []float64
	// NProc is the world size (workers plus master).
	NProc int
	// Wallclock is the master's elapsed seconds.
	Wallclock float64
	// BytesReceived is the protocol payload volume at the master.
	BytesReceived int64
	// Workers holds the per-worker tallies, sorted by rank. On a run that
	// degraded to local recomputation the master itself appears under its
	// own rank.
	Workers []WorkerTiming

	// Fault-tolerance ledger; all zero on an undisturbed run.
	WorkerFailures int // workers declared dead (crash, hang, protocol violation)
	Reassignments  int // orphaned blocks handed to surviving workers
	DeadlineMisses int // total assignment/start-up deadline expiries
	LocalModes     int // modes recomputed by the master's degradation path
	// FailedRanks lists the ranks declared dead, in declaration order. A
	// long-lived caller (the farm supervisor) uses it to retire exactly the
	// casualties' connections while keeping the survivors attached.
	FailedRanks []int
}

// BatchBlocks splits nk grid indices into consecutive [lo, hi) blocks of up
// to b members each — the unit of hand-out for lockstep batched evolution.
// Blocks follow the input order of the grid (block j covers indices
// [j*b, min((j+1)*b, nk))), so the decomposition — and with it every
// batched trajectory — depends only on (nk, b), never on schedule or
// transport. b <= 1 yields one block per index. The single definition here
// serves both the dispatch backends and the wire protocol's master, which
// must agree on it exactly.
func BatchBlocks(nk, b int) [][2]int {
	if b < 1 {
		b = 1
	}
	blocks := make([][2]int, 0, (nk+b-1)/b)
	for lo := 0; lo < nk; lo += b {
		blocks = append(blocks, [2]int{lo, min(lo+b, nk)})
	}
	return blocks
}

// handOutOrder validates cfg.Order (or builds the identity order) as a
// permutation of 0..nk-1.
func handOutOrder(cfg Config, nk int) ([]int, error) {
	if cfg.Order == nil {
		order := make([]int, nk)
		for i := range order {
			order[i] = i
		}
		return order, nil
	}
	if len(cfg.Order) != nk {
		return nil, fmt.Errorf("plinger: hand-out order has %d entries for %d wavenumbers", len(cfg.Order), nk)
	}
	seen := make([]bool, nk)
	for _, ik := range cfg.Order {
		if ik < 0 || ik >= nk || seen[ik] {
			return nil, fmt.Errorf("plinger: hand-out order is not a permutation of 0..%d", nk-1)
		}
		seen[ik] = true
	}
	return cfg.Order, nil
}

// workerFaultError marks an error caused by one worker's data or behavior
// (a protocol violation, a corrupt block) rather than by the master itself.
// The fault-tolerant master converts it into a worker failure; the paper's
// original protocol aborts the run with the inner error.
type workerFaultError struct{ err error }

func (e workerFaultError) Error() string { return e.err.Error() }
func (e workerFaultError) Unwrap() error { return e.err }

// Master runs the master subroutine of Appendix A over the endpoint. It
// returns when every wavenumber has been received and every worker stopped.
//
// With cfg.AssignDeadline > 0 the master additionally detects worker
// failures (crashes, hangs, protocol violations, TagDown death reports)
// and recovers: orphaned blocks are reassigned to survivors, and with no
// survivors the master recomputes them itself. Recovery always re-runs the
// WHOLE original block — a block's lockstep trajectories depend on every
// member, so partial re-batching would change bits — and duplicate results
// are resolved first-wins, keeping recovered sweeps bitwise-identical to
// undisturbed ones.
func Master(ep mp.Endpoint, model *core.Model, cfg Config) (*Results, error) {
	nk := len(cfg.KValues)
	if nk == 0 {
		return nil, fmt.Errorf("plinger: no wavenumbers to distribute")
	}
	blocks := BatchBlocks(nk, cfg.Mode.KBatch)
	order, err := handOutOrder(cfg, len(blocks))
	if err != nil {
		return nil, err
	}
	if cfg.PerKLMax != nil && len(cfg.PerKLMax) != nk {
		return nil, fmt.Errorf("plinger: per-k lmax table has %d entries for %d wavenumbers", len(cfg.PerKLMax), nk)
	}
	start := time.Now()

	// Broadcast initial data (tag 1): end time, lmax, nk, gauge, rtol,
	// keep-sources flag.
	tauEnd := cfg.Mode.TauEnd
	if tauEnd <= 0 {
		tauEnd = model.BG.Tau0()
	}
	keep := 0.0
	if cfg.Mode.KeepSources {
		keep = 1.0
	}
	init := []float64{tauEnd, float64(cfg.Mode.LMax), float64(nk),
		float64(cfg.Mode.Gauge), cfg.Mode.RTol, keep}
	if len(init) != initBlockLen {
		panic("plinger: init block length drifted from the protocol")
	}
	ft := cfg.AssignDeadline > 0
	prober, hasProber := ep.(mp.DeadlineProber)
	if err := ep.Bcast(TagInit, init); err != nil {
		// Under fault tolerance a worker unreachable at broadcast time is a
		// worker failure, not a run failure: whoever missed the init never
		// requests work and falls to the start-up deadline below.
		if !ft {
			return nil, fmt.Errorf("plinger: broadcast: %w", err)
		}
	}

	res := &Results{
		Mode:    make([]*core.Result, nk),
		KValues: append([]float64(nil), cfg.KValues...),
	}
	workers := map[int]*WorkerTiming{}
	var bytes int64

	next := 0 // position in order
	done := 0
	stopped := map[int]bool{}
	// left counts a worker's outstanding members of its current block, so a
	// batched assignment triggers exactly one follow-up hand-out — after its
	// last member completes, not after every one.
	left := map[int]int{}

	// Fault-tolerance state. Every live worker owes the master a message
	// before its deadlineAt entry expires: first the start-up request, then
	// per-assignment progress. orphans holds blocks whose owner died; they
	// are handed out ahead of fresh work. computing counts live workers with
	// an assigned block still outstanding.
	failed := map[int]bool{}
	assignedBlock := map[int]int{}
	deadlineAt := map[int]time.Time{}
	var orphans []int
	computing := 0
	if ft {
		for rank := 0; rank < ep.Size(); rank++ {
			if rank != ep.Master() {
				deadlineAt[rank] = start.Add(cfg.AssignDeadline)
			}
		}
	}

	touch := func(src int) *WorkerTiming {
		w := workers[src]
		if w == nil {
			w = &WorkerTiming{Rank: src}
			workers[src] = w
		}
		return w
	}

	// A mode's result arrives as two or three messages (summary, moments,
	// optionally sources). Messages from different workers interleave
	// arbitrarily — and a strict arrival-order (MPL-style) transport can
	// only ever deliver the head of the queue — so the master consumes
	// every message in arrival order and assembles records per source.
	type inflight struct {
		sum, mom []float64
	}
	pending := map[int]*inflight{}

	// failWorker declares a live worker dead: its half-assembled record is
	// discarded and its in-flight block joins the orphan queue for a full
	// re-run (the lockstep batch ties every trajectory to the whole block,
	// so resuming mid-block would change bits).
	failWorker := func(rank int) {
		if !ft || failed[rank] || stopped[rank] {
			return
		}
		failed[rank] = true
		res.WorkerFailures++
		res.FailedRanks = append(res.FailedRanks, rank)
		delete(deadlineAt, rank)
		delete(pending, rank)
		if left[rank] > 0 {
			computing--
			left[rank] = 0
			orphans = append(orphans, assignedBlock[rank])
			delete(assignedBlock, rank)
		}
	}

	blockLMax := func(lo, hi int) float64 {
		lmax := 0.0
		if cfg.PerKLMax != nil {
			// The block runs at the largest cutoff among its members
			// (the lockstep batch unifies the hierarchy anyway).
			for ik := lo; ik < hi; ik++ {
				if l := cfg.PerKLMax[ik]; l > 0 && float64(l) > lmax {
					lmax = float64(l)
				}
			}
		}
		return lmax
	}

	assign := func(dst int) error {
		blockIdx := -1
		if ft && len(orphans) > 0 {
			blockIdx = orphans[0]
			orphans = orphans[1:]
			res.Reassignments++
		} else if next < len(order) {
			blockIdx = order[next]
			next++
		}
		if blockIdx < 0 {
			if !stopped[dst] {
				stopped[dst] = true
				delete(deadlineAt, dst)
				if err := ep.Send(dst, TagStop, []float64{0}); err != nil {
					if ft {
						return nil // unreachable and already stopped: moot
					}
					return err
				}
			}
			return nil
		}
		lo, hi := blocks[blockIdx][0], blocks[blockIdx][1]
		lmax := blockLMax(lo, hi)
		left[dst] = hi - lo
		assignedBlock[dst] = blockIdx
		computing++
		if ft {
			deadlineAt[dst] = time.Now().Add(cfg.AssignDeadline)
		}
		var payload []float64
		if hi-lo == 1 {
			// The Fortran sends the 1-based wavenumber index; the
			// optional second value is the per-k hierarchy cutoff.
			payload = []float64{float64(lo + 1), lmax}
		} else {
			// Batched assignment: 1-based first index, unified cutoff, and
			// the block size as the third value.
			payload = []float64{float64(lo + 1), lmax, float64(hi - lo)}
		}
		if err := ep.Send(dst, TagAssign, payload); err != nil {
			if ft {
				// The transport already knows this worker is gone; orphan
				// the block for the next live requester.
				failWorker(dst)
				return nil
			}
			return err
		}
		return nil
	}

	complete := func(src int, fl *inflight, srcBlock []float64) error {
		delete(pending, src)
		ik1, r, err := unpackResult(fl.sum, fl.mom)
		if err != nil {
			return workerFaultError{err}
		}
		ik := ik1 - 1
		if ik < 0 || ik >= nk {
			return workerFaultError{fmt.Errorf("plinger: wavenumber index %d out of range", ik1)}
		}
		if srcBlock != nil {
			samples, err := unpackSources(ik1, srcBlock)
			if err != nil {
				return workerFaultError{err}
			}
			r.Sources = samples
		}
		if res.Mode[ik] == nil {
			// First-wins: a reassigned block re-runs members its dead owner
			// already delivered, and only the first copy of each mode counts
			// (identical bits either way — a mode is a pure function of k).
			res.Mode[ik] = r
			done++
			w := touch(src)
			w.Modes++
			w.Seconds += r.Seconds
			w.Flops += r.Flops
			if cfg.ASCIIOut != nil {
				if err := writeASCIIRecord(cfg.ASCIIOut, fl.sum); err != nil {
					return err
				}
			}
			if cfg.BinaryOut != nil {
				if err := writeBinaryRecord(cfg.BinaryOut, fl.mom); err != nil {
					return err
				}
			}
		}
		left[src]--
		if left[src] > 0 {
			return nil // more members of this worker's block are in flight
		}
		computing--
		delete(assignedBlock, src)
		return assign(src)
	}

	// live counts workers that could still produce results or requests.
	live := func() int {
		n := 0
		for rank := 0; rank < ep.Size(); rank++ {
			if rank != ep.Master() && !failed[rank] && !stopped[rank] {
				n++
			}
		}
		return n
	}

	// downReport honours an out-of-band death report (see TagDown), so the
	// casualty's block is orphaned now instead of at its deadline.
	downReport := func(m mp.Message) bool {
		if !ft || m.Tag != TagDown || m.Source != ep.Rank() || len(m.Data) != 1 {
			return false
		}
		failWorker(int(m.Data[0]))
		return true
	}

	// expire fails every worker whose deadline has passed.
	expire := func(now time.Time) {
		for rank, dl := range deadlineAt {
			if !dl.After(now) {
				res.DeadlineMisses++
				touch(rank).DeadlineMisses++
				failWorker(rank)
			}
		}
	}

	// probeNext waits for the next message, bounded by the earliest live
	// deadline under fault tolerance. ok=false reports a deadline expiry
	// instead of a message.
	probeNext := func() (int, int, bool, error) {
		if ft && hasProber && len(deadlineAt) > 0 {
			earliest := time.Time{}
			for _, dl := range deadlineAt {
				if earliest.IsZero() || dl.Before(earliest) {
					earliest = dl
				}
			}
			wait := time.Until(earliest)
			if wait <= 0 {
				return 0, 0, false, nil
			}
			return prober.ProbeTimeout(mp.AnyTag, mp.AnySource, wait)
		}
		tag, src, err := ep.Probe(mp.AnyTag, mp.AnySource)
		return tag, src, err == nil, err
	}

	// recomputeLocal is the last-resort degradation: with every worker lost,
	// the master evolves the remaining blocks itself, mirroring the worker's
	// exact evolution call so the results stay bitwise-identical.
	recomputeLocal := func() error {
		rem := append([]int(nil), orphans...)
		orphans = orphans[:0]
		for ; next < len(order); next++ {
			rem = append(rem, order[next])
		}
		if len(rem) == 0 {
			return nil
		}
		scratch := core.NewScratch()
		self := ep.Rank()
		for _, bi := range rem {
			lo, hi := blocks[bi][0], blocks[bi][1]
			p := cfg.Mode
			p.TauEnd = tauEnd
			p.K = cfg.KValues[lo]
			if lm := blockLMax(lo, hi); lm > 0 {
				p.LMax = int(lm)
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
				return model.EvolveBatchWith(cfg.KValues[lo:hi], p, nil, scratch)
			}()
			if err != nil {
				return fmt.Errorf("plinger: local recompute (ik=%d+%d): %w", lo+1, hi-lo, err)
			}
			for j, r := range rs {
				ik := lo + j
				if res.Mode[ik] != nil {
					continue // first-wins against results received earlier
				}
				res.Mode[ik] = r
				done++
				res.LocalModes++
				w := touch(self)
				w.Modes++
				w.Seconds += r.Seconds
				w.Flops += r.Flops
				obsModeSeconds.ObserveShard(self, r.Seconds)
				if cfg.ASCIIOut != nil {
					if err := writeASCIIRecord(cfg.ASCIIOut, packSummary(ik+1, r)); err != nil {
						return err
					}
				}
				if cfg.BinaryOut != nil {
					if err := writeBinaryRecord(cfg.BinaryOut, packMoments(ik+1, r)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	// Under fault tolerance the loop also waits out live workers still
	// holding a block past done == nk — possible when a reassigned block's
	// members were all first-won by its dead previous owner — so that every
	// live worker ends the loop stopped. Without fault tolerance computing
	// can never outlast done == nk and the condition is the paper's.
	for done < nk || computing > 0 {
		if ft && live() == 0 {
			// Nobody left to compute or request: finish the sweep locally
			// rather than stall (the paper: "this has no fault tolerance" —
			// this path is precisely what it lacked).
			if err := recomputeLocal(); err != nil {
				return nil, err
			}
			break
		}
		tag, src, ok, err := probeNext()
		if err != nil {
			return nil, fmt.Errorf("plinger: master probe: %w", err)
		}
		if !ok {
			expire(time.Now())
			continue
		}
		m, err := ep.Recv(tag, src)
		if err != nil {
			return nil, err
		}
		if downReport(m) {
			continue
		}
		bytes += int64(8 * len(m.Data))
		if ft && failed[src] {
			// A worker declared dead may still be alive (a blown deadline on
			// a slow link). Its work was reassigned; discard the duplicates
			// and, if it asks for more, tell it to exit.
			if tag == TagRequest {
				_ = ep.Send(src, TagStop, []float64{0})
			}
			continue
		}
		if ft && left[src] > 0 {
			// Any message is progress: the deadline bounds silence, so a
			// worker grinding through a long block stays alive as long as
			// its members keep arriving.
			deadlineAt[src] = time.Now().Add(cfg.AssignDeadline)
		}
		switch tag {
		case TagRequest:
			touch(src)
			if err := assign(src); err != nil {
				return nil, err
			}
		case TagSummary:
			if pending[src] != nil {
				if ft {
					failWorker(src)
					continue
				}
				return nil, fmt.Errorf("plinger: worker %d sent a new summary before completing a mode", src)
			}
			pending[src] = &inflight{sum: m.Data}
		case TagMoments:
			fl := pending[src]
			if fl == nil || fl.mom != nil {
				if ft {
					failWorker(src)
					continue
				}
				return nil, fmt.Errorf("plinger: worker %d sent moments without a summary", src)
			}
			fl.mom = m.Data
			if !cfg.Mode.KeepSources {
				if err := complete(src, fl, nil); err != nil {
					var wf workerFaultError
					if errors.As(err, &wf) {
						if ft {
							failWorker(src)
							continue
						}
						return nil, wf.err
					}
					return nil, err
				}
			}
		case TagSources:
			fl := pending[src]
			if fl == nil || fl.mom == nil {
				if ft {
					failWorker(src)
					continue
				}
				return nil, fmt.Errorf("plinger: worker %d sent sources without moments", src)
			}
			if err := complete(src, fl, m.Data); err != nil {
				var wf workerFaultError
				if errors.As(err, &wf) {
					if ft {
						failWorker(src)
						continue
					}
					return nil, wf.err
				}
				return nil, err
			}
		default:
			if ft {
				failWorker(src)
				continue
			}
			return nil, fmt.Errorf("plinger: master got unexpected tag %d from %d", tag, src)
		}
	}

	// Late-starting workers may not have asked for work yet. Every worker
	// sends exactly one request after the init broadcast, so wait for each
	// outstanding one — in arrival order, as MPL-style transports require —
	// and answer it with a stop. Like the paper's protocol the plain path
	// has no fault tolerance: a remote worker that joined the world but died
	// before its first request stalls this wait. Under fault tolerance the
	// wait is deadline-bounded and a worker that never shows is failed.
	for live() > 0 {
		tag, src, ok, err := probeNext()
		if err != nil {
			return nil, fmt.Errorf("plinger: master drain probe: %w", err)
		}
		if !ok {
			expire(time.Now())
			continue
		}
		m, err := ep.Recv(tag, src)
		if err != nil {
			return nil, err
		}
		if downReport(m) {
			continue
		}
		if tag != TagRequest || stopped[src] || (ft && failed[src]) {
			if ft {
				// Stragglers may deliver duplicates of reassigned work while
				// the run winds down; they are not failures, just late.
				if tag == TagRequest {
					_ = ep.Send(src, TagStop, []float64{0})
				}
				continue
			}
			return nil, fmt.Errorf("plinger: master got unexpected tag %d from %d while draining", tag, src)
		}
		bytes += int64(8 * len(m.Data))
		touch(src)
		stopped[src] = true
		delete(deadlineAt, src)
		if err := ep.Send(src, TagStop, []float64{0}); err != nil {
			if !ft {
				return nil, err
			}
		}
	}

	res.NProc = ep.Size()
	res.Wallclock = time.Since(start).Seconds()
	res.BytesReceived = bytes
	for _, w := range workers {
		res.Workers = append(res.Workers, *w)
	}
	sort.Slice(res.Workers, func(a, b int) bool { return res.Workers[a].Rank < res.Workers[b].Rank })
	return res, nil
}

// Worker runs the worker subroutine of Appendix A: receive the initial
// broadcast, then alternate between requesting work and returning results
// until a stop message arrives.
func Worker(ep mp.Endpoint, model *core.Model, kValues []float64, mode core.Params) error {
	return WorkerWith(ep, model, kValues, mode, nil)
}

// WorkerWith is Worker with a caller-owned evolution arena: a long-lived
// worker process (cmd/plingerw) hands the same scratch to every sweep it
// serves, so the state buffers and the pooled integrator stay warm across
// sweeps instead of being rebuilt per run. A nil scratch allocates a fresh
// one, which is exactly Worker.
func WorkerWith(ep mp.Endpoint, model *core.Model, kValues []float64, mode core.Params, scratch *core.Scratch) error {
	master := ep.Master()
	// Receive initial data (tag 1).
	if _, _, err := ep.Probe(TagInit, master); err != nil {
		return fmt.Errorf("plinger: worker init probe: %w", err)
	}
	init, err := ep.Recv(TagInit, master)
	if err != nil {
		return fmt.Errorf("plinger: worker init: %w", err)
	}
	if len(init.Data) != initBlockLen {
		return fmt.Errorf("plinger: init block length %d", len(init.Data))
	}
	mode.TauEnd = init.Data[0]
	if lm := int(init.Data[1]); lm > 0 {
		mode.LMax = lm
	}
	mode.Gauge = core.Gauge(int(init.Data[3]))
	if rt := init.Data[4]; rt > 0 {
		mode.RTol = rt
	}
	mode.KeepSources = init.Data[5] != 0

	// Ask for the first wavenumber (tag 2).
	if err := ep.Send(master, TagRequest, []float64{0}); err != nil {
		return err
	}
	// One evolution arena for (at least) the worker's whole run: every
	// assigned mode reuses the same state buffers and integrator.
	if scratch == nil {
		scratch = core.NewScratch()
	}
	for {
		// Receive next assignment or stop (mychecktid pattern: any tag
		// from the master).
		tag, _, err := ep.Probe(mp.AnyTag, master)
		if err != nil {
			return err
		}
		m, err := ep.Recv(tag, master)
		if err != nil {
			return err
		}
		if tag == TagStop {
			return nil
		}
		if tag != TagAssign {
			return fmt.Errorf("plinger: worker got unexpected tag %d", tag)
		}
		ik1 := int(m.Data[0])
		bsize := 1
		if len(m.Data) > 2 && m.Data[2] > 1 {
			bsize = int(m.Data[2])
		}
		if ik1 < 1 || ik1+bsize-1 > len(kValues) {
			return fmt.Errorf("plinger: assigned index block %d+%d out of range", ik1, bsize)
		}
		p := mode
		p.K = kValues[ik1-1]
		if len(m.Data) > 1 && m.Data[1] > 0 {
			p.LMax = int(m.Data[1])
		}
		// The worker is batch-agnostic: the block size rides in each
		// assignment, a one-mode block is the single-mode evolution, and
		// the per-member result triplets go back in member order.
		rs, err := model.EvolveBatchWith(kValues[ik1-1:ik1-1+bsize], p, nil, scratch)
		if err != nil {
			return fmt.Errorf("plinger: worker evolve (ik=%d+%d, k=%g): %w", ik1, bsize, p.K, err)
		}
		for j, r := range rs {
			obsModeSeconds.ObserveShard(ep.Rank()-1, r.Seconds)
			if err := ep.Send(master, TagSummary, packSummary(ik1+j, r)); err != nil {
				return err
			}
			if err := ep.Send(master, TagMoments, packMoments(ik1+j, r)); err != nil {
				return err
			}
			if mode.KeepSources {
				if err := ep.Send(master, TagSources, packSources(ik1+j, r)); err != nil {
					return err
				}
			}
		}
	}
}

// asciiRecordLen is the number of summary values printed per ASCII line
// (the paper's "WRITE(unit_1,*) (y(i),i=1,20)").
const asciiRecordLen = 20

// writeASCIIRecord prints the 20 summary values, one line per mode.
func writeASCIIRecord(w io.Writer, sum []float64) error {
	if len(sum) < asciiRecordLen {
		return fmt.Errorf("plinger: summary block has %d values, need %d for the ASCII record", len(sum), asciiRecordLen)
	}
	for i := 0; i < asciiRecordLen; i++ {
		sep := " "
		if i == asciiRecordLen-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%.10e%s", sum[i], sep); err != nil {
			return err
		}
	}
	return nil
}

// writeBinaryRecord writes the moment block as little-endian float64s with
// a length prefix, the Go rendering of the unformatted Fortran record
// "WRITE(unit_2) ...".
func writeBinaryRecord(w io.Writer, mom []float64) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(mom))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, mom)
}

// ReadBinaryRecords parses a unit_2-style stream back into moment blocks.
func ReadBinaryRecords(r io.Reader) ([][]float64, error) {
	var out [][]float64
	for {
		var n int64
		err := binary.Read(r, binary.LittleEndian, &n)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1<<26 {
			return nil, fmt.Errorf("plinger: corrupt record length %d", n)
		}
		rec := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
