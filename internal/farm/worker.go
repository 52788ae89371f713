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

// workerModels bounds a worker's warm models: the daemon's own model
// registry keeps four by default, and a scan that asks for a new cosmology
// on every sweep must not grow the worker's heap for its whole life.
// Evicting is safe: a rebuild gives the same bits, and a sweep in flight
// keeps its pointer.
const workerModels = 4

// ModelCache builds and retains worker-side models keyed by their spec:
// the expensive background/thermodynamics/EvalTables survive across
// sweeps AND across reconnects of the same process, the workerModels most
// recently used of them.
type ModelCache struct {
	mu     sync.Mutex
	models []*core.Model // least recently used first
}

// NewModelCache returns an empty warm-model cache.
func NewModelCache() *ModelCache { return &ModelCache{} }

// Get returns the cached model for spec, building it with core.Build on
// first use (or after its eviction), so a worker-side evolution is bitwise
// the master's.
func (c *ModelCache) Get(spec cosmology.Params) (*core.Model, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.IndexFunc(c.models, func(m *core.Model) bool { return m.Spec == spec }); i >= 0 {
		m := c.models[i]
		c.models = append(slices.Delete(c.models, i, i+1), m)
		return m, nil
	}
	m, err := core.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("farm: worker model: %w", err)
	}
	if len(c.models) == workerModels {
		c.models = slices.Delete(c.models, 0, 1)
	}
	c.models = append(c.models, m)
	return m, nil
}

// Len reports the number of cached models.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.models)
}

// ctrlEvent is one control-plane event the session reader hands the sweep
// loop: a sweep to serve, a drain order, or the connection's death.
type ctrlEvent struct {
	spec  *sweepSpec
	ep    *tcpmp.Endpoint // that sweep's endpoint, its mailbox fed by the reader
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
	tc := &tcpmp.Conn{Conn: conn}

	host, _ := os.Hostname()
	uid := opt.UID
	if uid == "" {
		uid = NewWorkerUID()
	}
	hello := Hello{
		Version:  protocolVersion,
		Host:     host,
		PID:      os.Getpid(),
		Procs:    runtime.GOMAXPROCS(0),
		Rejoins:  opt.Rejoins,
		UID:      uid,
		Numerics: core.NumericsVersion,
	}
	conn.SetDeadline(time.Now().Add(helloTimeout))
	if err := binary.Write(conn, binary.LittleEndian, uint32(farmMagic)); err != nil {
		return fmt.Errorf("farm: worker magic: %w", err)
	}
	if err := writeJSON(tc, kindHello, hello); err != nil {
		return fmt.Errorf("farm: worker hello: %w", err)
	}
	kind, _, payload, err := mp.ReadFrame(conn)
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
	// answers pings in place, creates each sweep's endpoint BEFORE
	// announcing the sweep (so data frames racing in behind the SweepBegin
	// always find their mailbox), and routes data frames to the current
	// sweep. Stray data between sweeps — a stop for an assignment the
	// master already reassigned — is dropped, which is exactly the
	// first-wins discard.
	ctrl := make(chan ctrlEvent, 4)
	var current atomic.Pointer[tcpmp.Endpoint]
	go func() {
		defer func() {
			if ep := current.Load(); ep != nil {
				ep.Close()
			}
		}()
		for {
			kind, tag, payload, err := mp.ReadFrame(conn)
			switch {
			case err != nil:
			case kind == kindPing:
				err = tc.WriteFrame(kindPong, 0, nil)
			case kind == kindSweepBegin:
				spec := new(sweepSpec)
				if err = json.Unmarshal(payload, spec); err != nil {
					err = fmt.Errorf("farm: worker sweep spec: %w", err)
					break
				}
				ep := tcpmp.NewEndpoint(spec.Rank, spec.World, []*tcpmp.Conn{tc})
				current.Store(ep)
				ctrl <- ctrlEvent{spec: spec, ep: ep}
			case kind == tcpmp.KindData:
				if ep := current.Load(); ep != nil {
					err = ep.Deliver(0, tag, payload)
				}
			case kind == kindDrain:
				ctrl <- ctrlEvent{drain: true}
				return
			default:
				err = fmt.Errorf("farm: worker got unexpected frame kind %d", kind)
			}
			if err != nil {
				ctrl <- ctrlEvent{err: err}
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
			if err := serveSweep(ev.ep, sp, models, scratch); err != nil {
				done.OK = false
				done.Err = err.Error()
				logf("farm worker %d sweep failed: %v", welcome.ID, err)
			}
			// The sweep's endpoint is retired before SweepDone goes out, so
			// anything the master sends after seeing the done frame can only
			// belong to the next sweep's.
			current.Store(nil)
			if err := writeJSON(tc, kindSweepDone, done); err != nil {
				return fmt.Errorf("farm: worker sweep done: %w", err)
			}
		}
	}
	return nil
}

// serveSweep runs one Appendix-A worker pass, panics contained: a model
// that blows up on this host must read as a failed sweep (the master
// reassigns), not a dead process.
func serveSweep(ep *tcpmp.Endpoint, sp *sweepSpec, models *ModelCache, scratch *core.Scratch) (err error) {
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
	return dispatch.Worker(ep, model, sp.Ks, mode, scratch)
}
