// Package farm is the multi-host worker fleet: a Supervisor that owns a
// roster of out-of-process plingerw workers (spawned locally or connected
// from other hosts), keeps them alive with heartbeats and supervised
// restarts, and serves sweeps over them through the paper's Appendix-A
// protocol (internal/dispatch: RunMaster here, Worker in each plingerw) with
// the master's fault tolerance armed. Its registration is the one way a
// worker process joins a master: plingerd's fleet and a
// `plinger -transport tcp` run alike.
//
// The farm is a long-lived dynamic world: workers join and leave between
// sweeps, a worker lost mid-sweep is reported to the master the moment its
// connection drops and REJOINS for the next sweep when its process
// reconnects, and spawned workers that crash are restarted under a
// rate-limited budget. Capacity self-heals instead of ratcheting down.
//
// A sweep's Appendix-A messages cross each worker's one connection through
// tcpmp endpoints, as tcpmp data frames, exactly as in tcpmp's loopback
// world; the farm adds only its control frames (hello/welcome, ping/pong,
// sweep begin/done, drain), mp frames of the other kinds with JSON
// payloads.
// A sweep's begin frame carries every exported field of core.Params but K;
// core's unexported test hooks (the integrator override among them) never
// cross it, so a worker always evolves with the default numerics.
//
// Every worker of one fleet, and the supervisor that evolves blocks itself
// when none is registered, must be built for the same GOARCH, amd64 for the
// golden bits: the bitwise contract holds only between processes running
// the same instructions. An amd64 build evolves through the SSE2 kernels of
// internal/ode and internal/core, which never fuse; an arm64 build runs
// their Go loops, which the compiler fuses into multiply-adds, so its
// blocks differ in the last bits. Registration does not check this; it
// checks only that the worker shares the supervisor's
// core.NumericsVersion.
package farm

import (
	"encoding/json"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/mp/tcpmp"
)

// farmMagic opens every farm connection ("PLFM"): a dialer that opens with
// anything else is closed at its first word.
const farmMagic = 0x504c464d

// protocolVersion is bumped on any incompatible frame-format change; the
// supervisor rejects a Hello with a different version during registration.
// Version 2: a sweep's model is the cosmology.Params spec, keyed by its Go
// field names.
const protocolVersion = 2

// Frame kinds. One persistent connection per worker multiplexes the
// control plane (JSON payloads) and the sweep data plane (tcpmp.KindData,
// 7, carrying the Appendix-A tags) — TCP's per-connection ordering is what
// guarantees a sweep's TagStop precedes the next SweepBegin.
const (
	kindHello      = int32(1) // worker -> master: registration (JSON Hello)
	kindWelcome    = int32(2) // master -> worker: admission (JSON Welcome)
	kindPing       = int32(3) // master -> worker: liveness probe
	kindPong       = int32(4) // worker -> master: liveness answer
	kindSweepBegin = int32(5) // master -> worker: sweep membership (JSON sweepSpec)
	kindSweepDone  = int32(6) // worker -> master: sweep finished (JSON sweepDone)
	kindDrain      = int32(8) // master -> worker: finish and exit cleanly
)

// Hello is the worker's registration: who is joining and with what
// capacity. Rejoins counts reconnections this process has made before the
// current one, letting the supervisor tell a fresh worker from a returning
// casualty.
type Hello struct {
	Version int    `json:"version"`
	Host    string `json:"host"`
	PID     int    `json:"pid"`
	Procs   int    `json:"procs"` // GOMAXPROCS: the worker's arena capacity
	Rejoins int    `json:"rejoins"`
	// UID is the worker's stable identity across reconnects: the
	// supervisor recognizes a returning casualty by it. A PID cannot play
	// this role — two in-process workers share one, and a recycled PID
	// would alias two unrelated processes.
	UID string `json:"uid"`
	// Numerics is the worker's core.NumericsVersion: a worker whose build
	// computes other bits for the same spec is refused at registration.
	Numerics int `json:"numerics"`
}

// Welcome is the supervisor's admission reply.
type Welcome struct {
	ID          int `json:"id"`
	HeartbeatMS int `json:"heartbeat_ms"`
}

// sweepSpec tells one worker its place in a sweep. The Appendix-A TagInit
// broadcast still carries the protocol's own init block (tauEnd, lmax, nk,
// gauge, rtol, keep); the spec ships the fields TagInit does not cover —
// the model, the grid, and the evolution settings that must match the
// master bit for bit (KBatch, FastEvolve).
type sweepSpec struct {
	Rank  int              `json:"rank"`
	World int              `json:"world"`
	Model cosmology.Params `json:"model"` // the master model's core.Model.Spec
	Ks    []float64        `json:"ks"`

	LMax       int     `json:"lmax"`
	Gauge      int     `json:"gauge,omitempty"`
	RTol       float64 `json:"rtol,omitempty"`
	TauEnd     float64 `json:"tau_end,omitempty"`
	KeepSrc    bool    `json:"keep_sources,omitempty"`
	KBatch     int     `json:"kbatch,omitempty"`
	FastEvolve bool    `json:"fast_evolve,omitempty"`
}

// params reconstructs the worker-side core.Params: every exported field
// but K, which the wire protocol assigns per block. core's unexported test
// hooks do not cross a process boundary and stay at their defaults.
func (sp *sweepSpec) params() core.Params {
	return core.Params{
		LMax:        sp.LMax,
		Gauge:       core.Gauge(sp.Gauge),
		RTol:        sp.RTol,
		TauEnd:      sp.TauEnd,
		KeepSources: sp.KeepSrc,
		KBatch:      sp.KBatch,
		FastEvolve:  sp.FastEvolve,
	}
}

// specFromParams is the master-side inverse of params.
func specFromParams(mode core.Params) sweepSpec {
	return sweepSpec{
		LMax:       mode.LMax,
		Gauge:      int(mode.Gauge),
		RTol:       mode.RTol,
		TauEnd:     mode.TauEnd,
		KeepSrc:    mode.KeepSources,
		KBatch:     mode.KBatch,
		FastEvolve: mode.FastEvolve,
	}
}

// sweepDone closes a worker's participation in one sweep.
type sweepDone struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// writeJSON sends a control frame.
func writeJSON(c *tcpmp.Conn, kind int32, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.WriteFrame(kind, 0, payload)
}
