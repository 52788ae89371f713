package farm

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/dispatch"
	"plinger/internal/mp"
	"plinger/internal/mp/tcpmp"
)

// Options configures a Supervisor.
type Options struct {
	// Addr is the TCP listen address workers dial ("127.0.0.1:0" default;
	// use ":9041"-style addresses to accept workers from other hosts).
	Addr string
	// Workers is the spawned-local fleet target: the supervisor launches
	// this many WorkerBin processes and keeps that many running (restarts
	// under the budget). Zero means remote-only: the roster is whatever
	// dials in.
	Workers int
	// WorkerBin is the plingerw binary to spawn (required when Workers > 0).
	WorkerBin string
	// Heartbeat is the idle-channel ping interval (default 1s).
	Heartbeat time.Duration
	// MinWorkers is how many attached idle workers a sweep waits for
	// before starting (default: 1 when Workers > 0, else 0). With fewer —
	// including zero — after WaitWorkers, the sweep runs anyway and the
	// master computes the shortfall itself.
	MinWorkers int
	// WaitWorkers bounds that wait (default 10s).
	WaitWorkers time.Duration
	// Logf receives supervision events (nil: silent).
	Logf func(format string, args ...any)

	// Supervision settings the tests vary (zero: the defaults).
	// workerArgs are extra arguments passed to every spawned worker (the
	// supervisor always appends -master <addr>).
	workerArgs []string
	// heartbeatMisses is how many consecutive unanswered ping windows a
	// worker survives before being declared dead (default 3).
	heartbeatMisses int
	// assignDeadline is the silence budget of every farm sweep's master
	// (zero: dispatch's default, 30s).
	assignDeadline time.Duration
	// restartMax restarts are allowed per restartWindow across the fleet
	// (defaults 5 per minute); beyond that a crash-looping worker stays
	// down until the window drains.
	restartMax    int
	restartWindow time.Duration
}

func (o *Options) withDefaults() Options {
	opt := *o
	if opt.Addr == "" {
		opt.Addr = "127.0.0.1:0"
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = time.Second
	}
	if opt.heartbeatMisses <= 0 {
		opt.heartbeatMisses = 3
	}
	if opt.MinWorkers == 0 && opt.Workers > 0 {
		opt.MinWorkers = 1
	}
	if opt.MinWorkers < 0 {
		opt.MinWorkers = 0
	}
	if opt.WaitWorkers <= 0 {
		opt.WaitWorkers = 10 * time.Second
	}
	if opt.restartMax <= 0 {
		opt.restartMax = 5
	}
	if opt.restartWindow <= 0 {
		opt.restartWindow = time.Minute
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	return opt
}

// sweepAttach binds one worker connection into one in-flight sweep.
type sweepAttach struct {
	rank int
	ep   *tcpmp.Endpoint // the sweep's master endpoint
}

// workerConn is one registered worker on the roster.
type workerConn struct {
	id    int
	conn  *tcpmp.Conn
	hello Hello

	// pingPending counts heartbeat windows since the last inbound frame
	// of any kind; the reader zeroes it on every frame.
	pingPending atomic.Int32
	// sweep is non-nil while this worker is a member of an in-flight
	// sweep; the reader routes its data frames through it and clears it
	// when the worker's SweepDone arrives.
	sweep   atomic.Pointer[sweepAttach]
	removed atomic.Bool

	// Aggregates for Status, guarded by the supervisor mutex.
	sweeps, modes, misses int64
	busySeconds           float64
	joinedAt              time.Time
}

// workerProc is one spawned-local worker process under supervision.
type workerProc struct {
	cmd *exec.Cmd
	pid int
}

// Supervisor owns the fleet: the listener workers register on, the spawned
// local processes and their restart budget, the heartbeat loop, and the
// sweep path that drives the roster through the Appendix-A master. One
// Supervisor serves any number of models — sweeps carry their model's
// spec and workers cache models per spec — so one fleet backs a whole
// daemon.
type Supervisor struct {
	opt Options
	ln  net.Listener

	mu       sync.Mutex
	workers  map[int]*workerConn
	nextID   int
	known    map[string]bool // worker UIDs that have ever registered
	retired  map[string]bool // UIDs the farm itself dropped (fail/heartbeat)
	procs    map[int]*workerProc
	restarts []time.Time
	draining bool
	// roster is closed and replaced (rosterChanged) whenever a worker
	// registers, detaches or finishes its sweep, or a spawned process exits.
	roster chan struct{}

	sweepMu sync.Mutex // sweeps are serialized over the shared fleet
	closed  chan struct{}

	// Counters for Status (the obs series are process-global).
	nRestarts, nReconnects, nRejoins, nHBKills, nDenied, nSweeps atomic.Int64
}

// New starts a supervisor: listen, spawn the local fleet, begin
// heartbeating. Callers must Close (or Drain) it.
func New(opt Options) (*Supervisor, error) {
	s := newSupervisor(opt)
	if s.opt.Workers > 0 && s.opt.WorkerBin == "" {
		return nil, fmt.Errorf("farm: %d local workers requested but no WorkerBin to spawn", s.opt.Workers)
	}
	ln, err := net.Listen("tcp", s.opt.Addr)
	if err != nil {
		return nil, fmt.Errorf("farm: listen: %w", err)
	}
	s.ln = ln
	obsWorkersTarget.Set(float64(s.opt.Workers))
	go s.acceptLoop()
	go s.heartbeatLoop()
	for i := 0; i < s.opt.Workers; i++ {
		if err := s.spawn(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// newSupervisor is a supervisor with an empty roster that neither listens
// nor heartbeats yet.
func newSupervisor(opt Options) *Supervisor {
	return &Supervisor{
		opt:     opt.withDefaults(),
		workers: make(map[int]*workerConn),
		known:   make(map[string]bool),
		retired: make(map[string]bool),
		procs:   make(map[int]*workerProc),
		closed:  make(chan struct{}),
		roster:  make(chan struct{}),
	}
}

// Addr is the address workers dial (for remote quickstarts and tests).
func (s *Supervisor) Addr() string { return s.ln.Addr().String() }

// --- registration & roster ---

func (s *Supervisor) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain/Close
		}
		go s.register(c)
	}
}

// register admits one dialing worker — magic, Hello, version check,
// Welcome — and then serves its connection until it detaches. The handshake
// is deadline-bounded so a half-open dial can never wedge the roster.
func (s *Supervisor) register(c net.Conn) {
	c.SetDeadline(time.Now().Add(helloTimeout))
	hello, ok := readHello(c)
	if !ok {
		c.Close()
		return
	}
	if hello.Version != protocolVersion {
		s.opt.Logf("farm: rejecting worker %s/%d: protocol version %d (want %d)",
			hello.Host, hello.PID, hello.Version, protocolVersion)
		c.Close()
		return
	}
	if hello.Numerics != core.NumericsVersion {
		s.opt.Logf("farm: rejecting worker %s/%d: numerics version %d (want %d)",
			hello.Host, hello.PID, hello.Numerics, core.NumericsVersion)
		c.Close()
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.nextID++
	wc := &workerConn{id: s.nextID, conn: &tcpmp.Conn{Conn: c}, hello: hello, joinedAt: time.Now()}
	if hello.Rejoins > 0 || s.known[hello.UID] {
		obsReconnects.Inc()
		s.nReconnects.Add(1)
	}
	if s.retired[hello.UID] {
		// A worker the farm itself dropped — failed mid-sweep or
		// heartbeat-killed — came back: PR 7 lost it for one sweep, the
		// farm re-admits it for the next. This is the self-healing rejoin.
		obsRejoins.Inc()
		s.nRejoins.Add(1)
		delete(s.retired, hello.UID)
	}
	s.known[hello.UID] = true
	s.workers[wc.id] = wc
	s.rosterChanged()
	alive := len(s.workers)
	s.mu.Unlock()
	obsWorkersAlive.Set(float64(alive))

	welcome := Welcome{ID: wc.id, HeartbeatMS: int(s.opt.Heartbeat / time.Millisecond)}
	if err := writeJSON(wc.conn, kindWelcome, welcome); err != nil {
		s.dropConn(wc, err)
		return
	}
	c.SetDeadline(time.Time{})
	s.opt.Logf("farm: worker %d joined (host=%s pid=%d procs=%d rejoins=%d), %d alive",
		wc.id, hello.Host, hello.PID, hello.Procs, hello.Rejoins, alive)
	s.readLoop(wc)
}

// readHello reads a dialer's magic word and its Hello frame.
func readHello(c net.Conn) (hello Hello, ok bool) {
	var m uint32
	if binary.Read(c, binary.LittleEndian, &m) != nil || m != farmMagic {
		return hello, false
	}
	kind, _, payload, err := mp.ReadFrame(c)
	return hello, err == nil && kind == kindHello && json.Unmarshal(payload, &hello) == nil
}

// readLoop owns one worker connection's inbound side for its lifetime.
func (s *Supervisor) readLoop(wc *workerConn) {
	for {
		kind, tag, payload, err := mp.ReadFrame(wc.conn)
		if err != nil {
			s.dropConn(wc, err)
			return
		}
		wc.pingPending.Store(0) // any traffic is liveness
		switch kind {
		case kindPong:
			// liveness only
		case tcpmp.KindData:
			if at := wc.sweep.Load(); at != nil {
				if err := at.ep.Deliver(at.rank, tag, payload); err != nil {
					s.dropConn(wc, err)
					return
				}
			}
		case kindSweepDone:
			var done sweepDone
			_ = json.Unmarshal(payload, &done)
			idle := wc.sweep.Swap(nil) != nil
			s.mu.Lock()
			wc.sweeps++
			if idle {
				s.rosterChanged()
			}
			s.mu.Unlock()
			if !done.OK {
				s.opt.Logf("farm: worker %d reported sweep error: %s", wc.id, done.Err)
			}
		default:
			s.dropConn(wc, fmt.Errorf("farm: protocol violation: frame kind %d from worker", kind))
			return
		}
	}
}

// dropConn removes a worker from the roster (idempotent) and, when it was
// inside a sweep, reports its rank to the running master — a TagDown message
// from the master's own rank in its mailbox — so the block is orphaned
// immediately instead of waiting out the deadline.
func (s *Supervisor) dropConn(wc *workerConn, cause error) {
	if wc.removed.Swap(true) {
		return
	}
	wc.conn.Close()
	if at := wc.sweep.Swap(nil); at != nil {
		_ = at.ep.Push(mp.Message{Tag: mp.TagDown, Source: 0, Data: []float64{float64(at.rank)}})
	}
	s.mu.Lock()
	delete(s.workers, wc.id)
	s.rosterChanged()
	alive := len(s.workers)
	draining := s.draining
	s.mu.Unlock()
	obsWorkersAlive.Set(float64(alive))
	if !draining {
		s.opt.Logf("farm: worker %d (host=%s pid=%d) detached: %v — %d alive",
			wc.id, wc.hello.Host, wc.hello.PID, cause, alive)
	}
}

// rosterChanged wakes everyone waiting on the roster. The caller holds s.mu.
func (s *Supervisor) rosterChanged() {
	close(s.roster)
	s.roster = make(chan struct{})
}

// await returns, holding s.mu, once cond holds or ctx ends; cond runs under
// s.mu, again after every roster change.
func (s *Supervisor) await(ctx context.Context, cond func() bool) {
	s.mu.Lock()
	for !cond() && ctx.Err() == nil {
		changed := s.roster
		s.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
		}
		s.mu.Lock()
	}
}

// retireConn drops a worker the master declared failed and remembers its PID:
// when the same process dials back in, that registration counts as a
// rejoin. Closing the connection is also what UNSTICKS a zombie — a
// worker failed for slowness that is still alive and probing — forcing it
// back through reconnect instead of leaving it wedged on a dead sweep.
func (s *Supervisor) retireConn(wc *workerConn, cause string) {
	s.mu.Lock()
	s.retired[wc.hello.UID] = true
	s.mu.Unlock()
	s.dropConn(wc, fmt.Errorf("farm: retired: %s", cause))
}

// --- heartbeats ---

func (s *Supervisor) heartbeatLoop() {
	t := time.NewTicker(s.opt.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
		}
		s.mu.Lock()
		conns := make([]*workerConn, 0, len(s.workers))
		for _, wc := range s.workers {
			conns = append(conns, wc)
		}
		s.mu.Unlock()
		for _, wc := range conns {
			missed := int(wc.pingPending.Add(1)) - 1
			if missed >= 1 {
				obsHeartbeatMisses.Inc()
			}
			if missed >= s.opt.heartbeatMisses {
				obsHeartbeatKills.Inc()
				s.nHBKills.Add(1)
				s.killProcOf(wc)
				s.retireConn(wc, fmt.Sprintf("%d heartbeat misses", missed))
				continue
			}
			// Send off the ticker goroutine: a wedged connection must not
			// stall everyone else's heartbeat.
			go func(wc *workerConn) {
				if err := wc.conn.WriteFrame(kindPing, 0, nil); err != nil {
					s.dropConn(wc, err)
				}
			}(wc)
		}
	}
}

// killProcOf kills the spawned process behind a heartbeat-dead worker, if
// it is one of ours: the connection may be wedged while the process spins,
// and only killing it lets the reconciler put a healthy one back.
func (s *Supervisor) killProcOf(wc *workerConn) {
	s.mu.Lock()
	wp := s.procs[wc.hello.PID]
	s.mu.Unlock()
	if wp != nil && wp.cmd.Process != nil {
		_ = wp.cmd.Process.Kill()
	}
}

// --- spawned-local fleet & restart budget ---

func (s *Supervisor) spawn() error {
	args := append(append([]string{}, s.opt.workerArgs...), "-master", s.Addr())
	cmd := exec.Command(s.opt.WorkerBin, args...)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("farm: spawn worker: %w", err)
	}
	wp := &workerProc{cmd: cmd, pid: cmd.Process.Pid}
	s.mu.Lock()
	if s.draining {
		// Lost the race against Drain: this process would outlive the
		// farm's own kill pass, so put it down here.
		s.mu.Unlock()
		_ = cmd.Process.Kill()
		go cmd.Wait()
		return nil
	}
	s.procs[wp.pid] = wp
	s.mu.Unlock()
	go s.monitor(wp)
	return nil
}

func (s *Supervisor) monitor(wp *workerProc) {
	err := wp.cmd.Wait()
	s.mu.Lock()
	delete(s.procs, wp.pid)
	s.rosterChanged()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return
	}
	s.opt.Logf("farm: worker process %d exited: %v", wp.pid, err)
	if !s.allowRestart() {
		obsRestartsDenied.Inc()
		s.nDenied.Add(1)
		s.opt.Logf("farm: restart budget exhausted (%d per %v); worker %d stays down",
			s.opt.restartMax, s.opt.restartWindow, wp.pid)
		return
	}
	obsRestarts.Inc()
	s.nRestarts.Add(1)
	time.Sleep(50 * time.Millisecond) // crash-loop breather
	s.mu.Lock()
	stillUp := !s.draining
	s.mu.Unlock()
	if !stillUp {
		return
	}
	if err := s.spawn(); err != nil {
		s.opt.Logf("farm: respawn failed: %v", err)
	}
}

// allowRestart enforces the token-bucket restart budget: at most
// restartMax restarts within any sliding restartWindow.
func (s *Supervisor) allowRestart() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	keep := s.restarts[:0]
	for _, t := range s.restarts {
		if now.Sub(t) < s.opt.restartWindow {
			keep = append(keep, t)
		}
	}
	s.restarts = keep
	if len(s.restarts) >= s.opt.restartMax {
		return false
	}
	s.restarts = append(s.restarts, now)
	return true
}

// --- the sweep path ---

// claimWorkers waits (bounded) for MinWorkers idle workers, then makes
// every idle worker a member of a new sweep, ranked by join id, and returns
// the sweep's master endpoint with the rank->worker table. An empty table is
// a legal outcome: the master then computes the whole sweep itself through
// PR 7's degradation path.
func (s *Supervisor) claimWorkers(ctx context.Context) (*tcpmp.Endpoint, map[int]*workerConn) {
	wctx, cancel := context.WithTimeout(ctx, s.opt.WaitWorkers)
	defer cancel()
	var idle []*workerConn
	s.await(wctx, func() bool {
		idle = idle[:0]
		for _, wc := range s.workers {
			if wc.sweep.Load() == nil {
				idle = append(idle, wc)
			}
		}
		return len(idle) >= s.opt.MinWorkers
	})
	defer s.mu.Unlock()
	// Deterministic rank order for readable stats; results are rank-agnostic
	// by the determinism contract.
	slices.SortFunc(idle, func(a, b *workerConn) int { return a.id - b.id })
	conns := make([]*tcpmp.Conn, len(idle)+1)
	ep := tcpmp.NewEndpoint(0, len(conns), conns)
	peers := make(map[int]*workerConn, len(idle))
	for i, wc := range idle {
		conns[i+1] = wc.conn
		wc.sweep.Store(&sweepAttach{rank: i + 1, ep: ep})
		peers[i+1] = wc
	}
	return ep, peers
}

// The supervisor is a dispatch executor: like the shared pool, it serves
// any model, named per sweep.
var _ dispatch.Executor = (*Supervisor)(nil)

// Sweep runs one k-grid sweep for the given model over the fleet,
// returning dispatch-shaped results and stats. The workers build their
// replica from model.Spec, so the model must come from core.Build. Sweeps
// are serialized: the fleet is one shared resource and interleaving two
// masters over one mailbox per worker would need per-sweep multiplexing
// the wire does not carry. The fault-tolerant master is always armed; lost
// workers cost reassignments (or master-local recompute at the limit),
// never the sweep.
func (s *Supervisor) Sweep(ctx context.Context, model *core.Model, ks []float64, mode core.Params, adaptLMax bool) (*dispatch.Sweep, *dispatch.RunStats, error) {
	if model == nil {
		return nil, nil, fmt.Errorf("farm: sweep has no master-side model")
	}
	if model.Spec == (cosmology.Params{}) {
		return nil, nil, fmt.Errorf("farm: sweep model has no spec (build it with core.Build)")
	}
	if len(ks) == 0 {
		return nil, nil, fmt.Errorf("farm: empty wavenumber grid")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	select {
	case <-s.closed:
		return nil, nil, fmt.Errorf("farm: supervisor closed")
	default:
	}

	ep, peers := s.claimWorkers(ctx)

	// Membership: each claimed worker learns its rank, the world size, the
	// model, the grid, and the mode — then the Appendix-A protocol takes
	// over on the same connection. A worker unreachable right here is
	// reported down at once; its start-up deadline would catch it anyway.
	wspec := specFromParams(mode)
	wspec.Model = model.Spec
	wspec.World = ep.Size()
	wspec.Ks = ks
	for rank, wc := range peers {
		wspec.Rank = rank
		if err := writeJSON(wc.conn, kindSweepBegin, wspec); err != nil {
			s.dropConn(wc, err)
		}
	}

	sw, st, failed, err := dispatch.RunMaster(ctx, ep, model, ks, mode, dispatch.MasterOptions{
		Backend:        "farm",
		AdaptLMax:      adaptLMax,
		AssignDeadline: s.opt.assignDeadline,
	})
	if err != nil {
		// Workers may be blocked waiting for an assignment that will never
		// come; a stop on the wire releases each of them back to idle. A
		// stop landing after a worker already left the sweep falls into its
		// retired mailbox and is ignored.
		for rank := range peers {
			_ = ep.Send(rank, mp.TagStop, []float64{0})
		}
		return nil, nil, err
	}

	// Casualties: the master dropped these ranks for THIS sweep; retiring
	// their connections forces the processes (if still alive) back through
	// reconnect, and the roster re-admits them for the NEXT sweep.
	for _, rank := range failed {
		if wc := peers[rank]; wc != nil {
			s.retireConn(wc, fmt.Sprintf("failed by master (rank %d)", rank))
		}
	}

	st.BytesMoved = ep.BytesMoved()
	obsSweeps.Inc()
	s.nSweeps.Add(1)
	s.mu.Lock()
	for _, w := range st.Workers {
		if wc := peers[w.Rank]; wc != nil {
			wc.modes += int64(w.Modes)
			wc.busySeconds += w.Seconds
			wc.misses += int64(w.DeadlineMisses)
		}
	}
	s.mu.Unlock()
	return sw, st, nil
}

// --- status & shutdown ---

// WorkerStatus is one roster entry in Status (exposed via /v1/stats).
type WorkerStatus struct {
	ID             int     `json:"id"`
	Host           string  `json:"host"`
	PID            int     `json:"pid"`
	Procs          int     `json:"procs"`
	Rejoins        int     `json:"rejoins"`
	State          string  `json:"state"` // "idle" or "sweeping"
	Sweeps         int64   `json:"sweeps"`
	Modes          int64   `json:"modes"`
	BusySeconds    float64 `json:"busy_seconds"`
	DeadlineMisses int64   `json:"deadline_misses"`
}

// Status is the supervisor's self-description for /v1/stats.
type Status struct {
	Addr           string         `json:"addr"`
	TargetWorkers  int            `json:"target_workers"`
	Alive          int            `json:"alive"`
	Sweeps         int64          `json:"sweeps"`
	Restarts       int64          `json:"restarts"`
	RestartsDenied int64          `json:"restarts_denied,omitempty"`
	Reconnects     int64          `json:"reconnects"`
	Rejoins        int64          `json:"rejoins"`
	HeartbeatKills int64          `json:"heartbeat_kills"`
	Workers        []WorkerStatus `json:"workers,omitempty"`
}

// Status snapshots the roster and supervision counters.
func (s *Supervisor) Status() Status {
	st := Status{
		Addr:           s.Addr(),
		TargetWorkers:  s.opt.Workers,
		Sweeps:         s.nSweeps.Load(),
		Restarts:       s.nRestarts.Load(),
		RestartsDenied: s.nDenied.Load(),
		Reconnects:     s.nReconnects.Load(),
		Rejoins:        s.nRejoins.Load(),
		HeartbeatKills: s.nHBKills.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Alive = len(s.workers)
	for _, wc := range s.workers {
		ws := WorkerStatus{
			ID: wc.id, Host: wc.hello.Host, PID: wc.hello.PID,
			Procs: wc.hello.Procs, Rejoins: wc.hello.Rejoins,
			State:  "idle",
			Sweeps: wc.sweeps, Modes: wc.modes,
			BusySeconds: wc.busySeconds, DeadlineMisses: wc.misses,
		}
		if wc.sweep.Load() != nil {
			ws.State = "sweeping"
		}
		st.Workers = append(st.Workers, ws)
	}
	for i := 1; i < len(st.Workers); i++ {
		for j := i; j > 0 && st.Workers[j].ID < st.Workers[j-1].ID; j-- {
			st.Workers[j], st.Workers[j-1] = st.Workers[j-1], st.Workers[j]
		}
	}
	return st
}

// Alive reports the current roster size (for tests and readiness checks).
func (s *Supervisor) Alive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.workers)
}

// Drain shuts the farm down gracefully: stop admitting workers, wait for
// the in-flight sweep (bounded by ctx), tell every worker to exit cleanly,
// and wait for spawned processes to leave (bounded by ctx; stragglers are
// killed). Always returns with the farm fully stopped.
func (s *Supervisor) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.closed
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()

	// Wait out the in-flight sweep, bounded by the caller's budget; an
	// expired budget forces shutdown under the running sweep (it will fail
	// its transport, which is the caller's explicit choice).
	acquired := make(chan struct{})
	go func() {
		s.sweepMu.Lock()
		close(acquired)
	}()
	graceful := true
	select {
	case <-acquired:
		defer s.sweepMu.Unlock()
	case <-ctx.Done():
		graceful = false
	}

	close(s.closed)
	s.mu.Lock()
	conns := make([]*workerConn, 0, len(s.workers))
	for _, wc := range s.workers {
		conns = append(conns, wc)
	}
	procs := make([]*workerProc, 0, len(s.procs))
	for _, wp := range s.procs {
		procs = append(procs, wp)
	}
	s.mu.Unlock()
	for _, wc := range conns {
		_ = wc.conn.WriteFrame(kindDrain, 0, nil)
	}
	// Give drained workers until the budget (or a short grace) to leave on
	// their own — a clean exit closes the connection, which empties the
	// roster — before force-killing stragglers. A worker may still be
	// flushing its final SweepDone when the drain order lands; closing its
	// connection under that write would turn a graceful exit into an error.
	grace, cancel := context.WithTimeout(ctx, 2*time.Second)
	s.await(grace, func() bool { return len(s.procs)+len(s.workers) == 0 })
	s.mu.Unlock()
	cancel()
	for _, wp := range procs {
		if wp.cmd.Process != nil {
			_ = wp.cmd.Process.Kill()
		}
	}
	for _, wc := range conns {
		wc.conn.Close()
	}
	obsWorkersAlive.Set(0)
	if !graceful {
		return fmt.Errorf("farm: drain budget expired with a sweep in flight")
	}
	return nil
}

// Close force-drains with a short budget; for callers without a context.
func (s *Supervisor) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}
