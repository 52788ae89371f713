package plinger

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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
	m := &master{
		ep: ep, model: model, cfg: cfg, ft: cfg.AssignDeadline > 0,
		tauEnd: cfg.Mode.TauEnd, blocks: blocks, order: order,
		peers:   map[int]*peer{},
		workers: map[int]*WorkerTiming{},
		res:     &Results{Mode: make([]*core.Result, nk), KValues: append([]float64(nil), cfg.KValues...)},
	}
	if m.tauEnd <= 0 {
		m.tauEnd = model.BG.Tau0()
	}
	for rank := 0; rank < ep.Size(); rank++ {
		if rank != ep.Master() {
			m.peers[rank] = &peer{}
			if m.ft {
				m.peers[rank].due = start.Add(cfg.AssignDeadline)
			}
		}
	}
	m.live = len(m.peers)

	// Broadcast initial data (tag 1): end time, lmax, nk, gauge, rtol,
	// keep-sources flag.
	keep := 0.0
	if cfg.Mode.KeepSources {
		keep = 1.0
	}
	init := []float64{m.tauEnd, float64(cfg.Mode.LMax), float64(nk),
		float64(cfg.Mode.Gauge), cfg.Mode.RTol, keep}
	if len(init) != initBlockLen {
		panic("plinger: init block length drifted from the protocol")
	}
	if err := ep.Bcast(TagInit, init); err != nil && !m.ft {
		// Under fault tolerance a worker unreachable at broadcast time is a
		// worker failure, not a run failure: whoever missed the init never
		// requests work and falls to its start-up deadline.
		return nil, fmt.Errorf("plinger: broadcast: %w", err)
	}

	// Every worker sends exactly one request after the init, and one that
	// comes after the last block went out is answered with a stop, so the
	// loop runs until every mode is in and every worker stopped. Under fault
	// tolerance it also waits out live workers still holding a block past
	// done == nk — possible when a reassigned block's members were first-won
	// by its dead previous owner. Like the paper's protocol the plain path
	// has no fault tolerance: a worker that joined the world but died before
	// its first request stalls it.
	for m.done < nk || m.computing > 0 || m.live > 0 {
		if m.ft && m.live == 0 {
			// Nobody left to compute or request: finish the sweep locally
			// rather than stall (the paper: "this has no fault tolerance" —
			// this path is precisely what it lacked).
			if err := m.recomputeLocal(); err != nil {
				return nil, err
			}
			break
		}
		tag, src, ok, err := m.probe()
		if err != nil {
			return nil, fmt.Errorf("plinger: master probe: %w", err)
		}
		if !ok {
			m.expire(time.Now())
			continue
		}
		msg, err := ep.Recv(tag, src)
		if err != nil {
			return nil, err
		}
		if err := m.receive(msg); err != nil {
			return nil, err
		}
	}

	res := m.res
	res.NProc = ep.Size()
	res.Wallclock = time.Since(start).Seconds()
	res.BytesReceived = m.bytes
	for _, w := range m.workers {
		res.Workers = append(res.Workers, *w)
	}
	sort.Slice(res.Workers, func(a, b int) bool { return res.Workers[a].Rank < res.Workers[b].Rank })
	return res, nil
}

// master is the state of one Master run.
type master struct {
	ep     mp.Endpoint
	model  *core.Model
	cfg    Config
	ft     bool // fault tolerance armed: cfg.AssignDeadline > 0
	tauEnd float64
	blocks [][2]int
	order  []int
	next   int // position in order
	// orphans holds blocks whose owner failed; they are handed out ahead of
	// fresh work.
	orphans   []int
	computing int // live workers holding a block
	live      int // workers neither failed nor stopped
	done      int // modes booked
	peers     map[int]*peer
	workers   map[int]*WorkerTiming
	bytes     int64
	res       *Results
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

// receive is the master's one handler for a message, whoever sent it.
func (m *master) receive(msg mp.Message) error {
	tag, src := msg.Tag, msg.Source
	if m.ft && tag == TagDown && src == m.ep.Rank() && len(msg.Data) == 1 {
		m.fail(int(msg.Data[0])) // a death report, see TagDown
		return nil
	}
	m.bytes += int64(8 * len(msg.Data))
	p := m.peers[src]
	if m.ft && p != nil && (p.failed || p.stopped) {
		// A worker declared dead may still be alive (a blown deadline on a
		// slow link). Its work was reassigned; discard the duplicates and,
		// if it asks for more, tell it to exit.
		if tag == TagRequest {
			_ = m.ep.Send(src, TagStop, []float64{0})
		}
		return nil
	}
	if m.ft && p != nil && p.left > 0 {
		// Any message is progress: the deadline bounds silence, so a worker
		// grinding through a long block stays alive as long as its members
		// keep arriving.
		p.due = time.Now().Add(m.cfg.AssignDeadline)
	}
	switch {
	case p == nil || p.stopped: // nothing is expected from it
	case tag == TagRequest && p.left == 0:
		m.touch(src)
		return m.assign(src, p)
	case tag == TagSummary && p.left > 0 && p.sum == nil:
		p.sum = msg.Data
		return nil
	case tag == TagMoments && p.sum != nil && p.mom == nil:
		p.mom = msg.Data
		if m.cfg.Mode.KeepSources {
			return nil
		}
		return m.complete(src, p, nil)
	case tag == TagSources && p.mom != nil:
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
	if err == nil && ik1 > len(m.cfg.KValues) {
		err = fmt.Errorf("wavenumber index %d out of range", ik1)
	}
	if err == nil && m.cfg.Mode.KeepSources {
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
	if m.res.Mode[ik] != nil {
		return nil
	}
	m.res.Mode[ik] = r
	m.done++
	w := m.touch(rank)
	w.Modes++
	w.Seconds += r.Seconds
	w.Flops += r.Flops
	if m.cfg.ASCIIOut != nil {
		if err := writeASCIIRecord(m.cfg.ASCIIOut, sum); err != nil {
			return err
		}
	}
	if m.cfg.BinaryOut != nil {
		return writeBinaryRecord(m.cfg.BinaryOut, mom)
	}
	return nil
}

// assign hands the worker its next block — an orphan first, then the
// hand-out order — or, with none left, a stop.
func (m *master) assign(dst int, p *peer) error {
	bi := -1
	if len(m.orphans) > 0 {
		bi, m.orphans = m.orphans[0], m.orphans[1:]
		m.res.Reassignments++
	} else if m.next < len(m.order) {
		bi = m.order[m.next]
		m.next++
	}
	if bi < 0 {
		p.stopped = true
		m.live--
		p.due = time.Time{}
		if err := m.ep.Send(dst, TagStop, []float64{0}); err != nil && !m.ft {
			return err
		}
		return nil // under fault tolerance an unreachable worker is stopped all the same
	}
	lo, hi := m.blocks[bi][0], m.blocks[bi][1]
	p.block, p.left = bi, hi-lo
	m.computing++
	if m.ft {
		p.due = time.Now().Add(m.cfg.AssignDeadline)
	}
	// The Fortran sends the 1-based wavenumber index; the second value is
	// the per-k hierarchy cutoff, and a batched assignment adds the block
	// size.
	payload := []float64{float64(lo + 1), m.blockLMax(lo, hi), float64(hi - lo)}
	if hi-lo == 1 {
		payload = payload[:2]
	}
	if err := m.ep.Send(dst, TagAssign, payload); err != nil {
		if !m.ft {
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
func (m *master) blockLMax(lo, hi int) float64 {
	lmax := 0
	if m.cfg.PerKLMax != nil {
		lmax = max(0, slices.Max(m.cfg.PerKLMax[lo:hi]))
	}
	return float64(lmax)
}

// fault is the master's one verdict on a worker that broke the protocol or
// sent a block that does not decode: under fault tolerance the worker is
// failed and its block reassigned, otherwise the run ends with the error.
func (m *master) fault(rank int, err error) error {
	if !m.ft {
		return fmt.Errorf("plinger: worker %d: %w", rank, err)
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
	if !m.ft || p == nil || p.failed || p.stopped {
		return
	}
	p.failed = true
	m.live--
	m.res.WorkerFailures++
	m.res.FailedRanks = append(m.res.FailedRanks, rank)
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
			m.res.DeadlineMisses++
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
		p := m.cfg.Mode
		p.TauEnd = m.tauEnd
		p.K = m.cfg.KValues[lo]
		if lm := m.blockLMax(lo, hi); lm > 0 {
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
			return m.model.EvolveBatchWith(m.cfg.KValues[lo:hi], p, nil, scratch)
		}()
		if err != nil {
			return fmt.Errorf("plinger: local recompute (ik=%d+%d): %w", lo+1, hi-lo, err)
		}
		for j, r := range rs {
			ik := lo + j
			if m.res.Mode[ik] != nil {
				continue // first-wins against results received earlier
			}
			m.res.LocalModes++
			obsModeSeconds.ObserveShard(self, r.Seconds)
			if err := m.accept(self, ik, r, packSummary(ik+1, r), packMoments(ik+1, r)); err != nil {
				return err
			}
		}
	}
	return nil
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
		ik1, lmax, bsize, err := parseAssign(m.Data, len(kValues))
		if err != nil {
			return err
		}
		p := mode
		p.K = kValues[ik1-1]
		if lmax > 0 {
			p.LMax = lmax
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
