package farm

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/dispatch"
	"plinger/internal/mp"
	runner "plinger/internal/plinger"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

// helloTimeout bounds the registration handshake on both sides.
var helloTimeout = 10 * time.Second

// NewWorkerUID mints a random stable worker identity (see Hello.UID).
func NewWorkerUID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Degraded but still usable: identity collapses to the process.
		return fmt.Sprintf("pid-%d", os.Getpid())
	}
	return hex.EncodeToString(b[:])
}

// WorkerOptions configures one worker session (one connection's lifetime).
type WorkerOptions struct {
	// UID is this worker's stable identity across reconnects (empty: a
	// fresh random one, making every session a distinct worker). A
	// reconnecting caller MUST pass the same UID it registered with, or
	// its return will not count as a rejoin.
	UID string
	// Rejoins is how many times this process has reconnected before this
	// session; it rides in the Hello so the supervisor can count rejoins.
	Rejoins int
	// BuildTag optionally labels the worker build in the Hello.
	BuildTag string
	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)
	// Models is the warm model cache shared across sessions of one
	// process, so a reconnect does not recompute background/thermo tables.
	// nil: the session allocates a private one.
	Models *ModelCache
	// Scratch is the evolution arena kept warm across sweeps and sessions.
	// nil: the session allocates a private one.
	Scratch *core.Scratch
}

// ModelCache builds and retains worker-side models keyed by ModelSpec:
// the expensive background/thermodynamics/EvalTables survive across
// sweeps AND across reconnects of the same process.
type ModelCache struct {
	mu     sync.Mutex
	models map[ModelSpec]*core.Model
}

// NewModelCache returns an empty warm-model cache.
func NewModelCache() *ModelCache {
	return &ModelCache{models: make(map[ModelSpec]*core.Model)}
}

// Get returns the cached model for spec, building it on first use exactly
// as the facade does — same constructors, same defaults — so a worker-side
// evolution is bitwise the master's.
func (c *ModelCache) Get(spec ModelSpec) (*core.Model, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[spec]; ok {
		return m, nil
	}
	p := cosmology.Params{
		H: spec.H, OmegaC: spec.OmegaC, OmegaB: spec.OmegaB,
		OmegaLambda: spec.OmegaLambda, TCMB: spec.TCMB, YHe: spec.YHe,
		NNuMassless: spec.NNuMassless, NNuMassive: spec.NNuMassive,
		MNuEV: spec.MNuEV, SpectralIndex: spec.SpectralIndex,
	}
	var bg *cosmology.Background
	var err error
	if spec.Flatten {
		bg, err = cosmology.NewFlattened(p)
	} else {
		bg, err = cosmology.New(p)
	}
	if err != nil {
		return nil, fmt.Errorf("farm: worker model background: %w", err)
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		return nil, fmt.Errorf("farm: worker model thermodynamics: %w", err)
	}
	m := core.NewModel(bg, th)
	c.models[spec] = m
	return m, nil
}

// Len reports the number of cached models.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.models)
}

// workerEndpoint adapts one farm connection to mp.Endpoint for the
// duration of one sweep on the worker side. Sends become data frames to
// the master; receives drain the mailbox the session reader fills from the
// master's data frames.
type workerEndpoint struct {
	*mp.Queue
	conn net.Conn
	wmu  *sync.Mutex
	rank int
	size int
}

func (e *workerEndpoint) Rank() int   { return e.rank }
func (e *workerEndpoint) Size() int   { return e.size }
func (e *workerEndpoint) Master() int { return 0 }

func (e *workerEndpoint) Send(dst, tag int, data []float64) error {
	// The Appendix-A protocol is strictly worker<->master; dst is always
	// the master and rides only in the frame for symmetry with tcpmp.
	return writeFrame(e.conn, e.wmu, kindData, int32(tag), mp.EncodeFloats(data))
}

func (e *workerEndpoint) Bcast(tag int, data []float64) error {
	return e.Send(0, tag, data)
}

// ctrlEvent is one control-plane event the session reader hands the sweep
// loop: a sweep to serve, a drain order, or the connection's death.
type ctrlEvent struct {
	spec  *sweepSpec
	q     *mp.Queue // inbound data plane for that sweep, fed by the reader
	drain bool
	err   error
}

// ServeWorker runs one worker session over an established connection:
// register (Hello/Welcome), then serve sweeps until the supervisor drains
// us (returns nil) or the connection dies (returns the cause, and the
// caller reconnects). Heartbeats are answered concurrently even while an
// evolution is grinding, so a busy worker never looks dead.
func ServeWorker(conn net.Conn, opt WorkerOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	models := opt.Models
	if models == nil {
		models = NewModelCache()
	}
	scratch := opt.Scratch
	if scratch == nil {
		scratch = core.NewScratch()
	}
	var wmu sync.Mutex

	host, _ := os.Hostname()
	uid := opt.UID
	if uid == "" {
		uid = NewWorkerUID()
	}
	hello := Hello{
		Version: protocolVersion,
		Host:    host,
		PID:     os.Getpid(),
		Procs:   runtime.GOMAXPROCS(0),
		Rejoins: opt.Rejoins,
		UID:     uid,
	}
	hello.BuildTag = opt.BuildTag
	conn.SetDeadline(time.Now().Add(helloTimeout))
	if err := binary.Write(conn, binary.LittleEndian, uint32(farmMagic)); err != nil {
		return fmt.Errorf("farm: worker magic: %w", err)
	}
	if err := writeJSON(conn, &wmu, kindHello, hello); err != nil {
		return fmt.Errorf("farm: worker hello: %w", err)
	}
	kind, _, payload, err := mp.ReadFrame(conn, 1)
	if err != nil {
		return fmt.Errorf("farm: worker welcome: %w", err)
	}
	if kind != kindWelcome {
		return fmt.Errorf("farm: worker expected welcome, got frame kind %d", kind)
	}
	var welcome Welcome
	if err := json.Unmarshal(payload, &welcome); err != nil {
		return fmt.Errorf("farm: worker welcome: %w", err)
	}
	conn.SetDeadline(time.Time{})
	logf("farm worker %d registered (host=%s pid=%d rejoins=%d)",
		welcome.ID, hello.Host, hello.PID, hello.Rejoins)

	// The reader owns the socket's inbound side for the whole session. It
	// answers pings in place, creates each sweep's inbound queue BEFORE
	// announcing the sweep (so data frames racing in behind the SweepBegin
	// always find their mailbox), and routes data frames to the current
	// sweep. Stray data between sweeps — a stop for an assignment the
	// master already reassigned — lands in the retired queue and is never
	// read, which is exactly the first-wins discard.
	ctrl := make(chan ctrlEvent, 4)
	var currentQ atomic.Pointer[mp.Queue]
	go func() {
		defer func() {
			if q := currentQ.Load(); q != nil {
				q.Close()
			}
		}()
		for {
			kind, tag, payload, err := mp.ReadFrame(conn, 1)
			if err != nil {
				ctrl <- ctrlEvent{err: err}
				return
			}
			switch kind {
			case kindPing:
				if err := writeFrame(conn, &wmu, kindPong, 0, nil); err != nil {
					ctrl <- ctrlEvent{err: err}
					return
				}
			case kindSweepBegin:
				spec := new(sweepSpec)
				if err := json.Unmarshal(payload, spec); err != nil {
					ctrl <- ctrlEvent{err: fmt.Errorf("farm: worker sweep spec: %w", err)}
					return
				}
				q := mp.NewQueue()
				currentQ.Store(q)
				ctrl <- ctrlEvent{spec: spec, q: q}
			case kindData:
				data, err := mp.DecodeFloats(payload)
				if err != nil {
					ctrl <- ctrlEvent{err: err}
					return
				}
				if q := currentQ.Load(); q != nil {
					_ = q.Push(mp.Message{Tag: int(tag), Source: 0, Data: data})
				}
			case kindDrain:
				ctrl <- ctrlEvent{drain: true}
				return
			default:
				ctrl <- ctrlEvent{err: fmt.Errorf("farm: worker got unexpected frame kind %d", kind)}
				return
			}
		}
	}()

	for ev := range ctrl {
		switch {
		case ev.err != nil:
			return ev.err
		case ev.drain:
			logf("farm worker %d drained", welcome.ID)
			return nil
		default:
			sp := ev.spec
			done := sweepDone{OK: true}
			if err := serveSweep(conn, &wmu, sp, ev.q, models, scratch); err != nil {
				done.OK = false
				done.Err = err.Error()
				logf("farm worker %d sweep failed: %v", welcome.ID, err)
			}
			// The sweep's mailbox is retired before SweepDone goes out, so
			// anything the master sends after seeing the done frame can only
			// belong to the next sweep's queue.
			currentQ.Store(nil)
			if err := writeJSON(conn, &wmu, kindSweepDone, done); err != nil {
				return fmt.Errorf("farm: worker sweep done: %w", err)
			}
		}
	}
	return nil
}

// serveSweep runs one Appendix-A worker pass, panics contained: a model
// that blows up on this host must read as a failed sweep (the master
// reassigns), not a dead process.
func serveSweep(conn net.Conn, wmu *sync.Mutex, sp *sweepSpec, q *mp.Queue, models *ModelCache, scratch *core.Scratch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("farm: worker sweep panicked: %v", r)
		}
	}()
	model, err := models.Get(sp.Model)
	if err != nil {
		return err
	}
	mode := sp.params()
	if mode.FastEvolve {
		// Warm the shared evaluation tables across all local cores before
		// entering the per-mode loop, exactly as the in-process backends do.
		model.EnsureEvalTables(dispatch.ParallelFor)
	}
	ep := &workerEndpoint{Queue: q, conn: conn, wmu: wmu, rank: sp.Rank, size: sp.World}
	return runner.WorkerWith(ep, model, sp.Ks, mode, scratch)
}
