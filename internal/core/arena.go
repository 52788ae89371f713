package core

import "plinger/internal/ode"

// Scratch is a per-worker evolution arena: every buffer an evolution needs
// — the block in flight with its member mode slots, the ODE state vector
// and its hierarchy-resize ping-pong partner, the free-streaming ratio
// tables and the default integrator with its Runge-Kutta stage buffers —
// allocated once at the largest layout a worker has seen and re-sliced per
// block. A dispatch worker that threads one Scratch through EvolveWith or
// EvolveBatchWith runs the steady-state hot path without heap allocation
// beyond the Results it hands back, so a multi-core sweep stops feeding the
// garbage collector exactly where the paper's scaling curves need the
// cores to stay busy.
//
// A Scratch is NOT safe for concurrent use: it belongs to one worker
// goroutine at a time. Results never alias it, so they may be retained
// after it moves on. The zero value is ready to use.
type Scratch struct {
	// bat is the one evolution slot: the lockstep block in flight, a single
	// mode being its block of one.
	bat batch

	// state holds the ODE state vector; resize events ping-pong between
	// the two slots so the copy-over reads one while writing the other.
	state [2][]float64
	cur   int

	// rA/rB back the modes' free-streaming recurrence ratio tables; the
	// values depend only on l, so once grown they serve every mode.
	rA, rB []float64

	// dverk is the reused default integrator (built on first use).
	dverk *ode.Adaptive

	// srcCount is the sample count of the arena's last source-recording
	// mode; it seeds the next mode's capacity (see sourceBuf).
	srcCount int

	// Bound-method closures over &sc.bat, created once per arena: a method
	// value like b.rhs allocates at every use site, and the right-hand
	// side is handed to the integrator once per integration segment. The
	// receiver is the arena's own slot, so they stay valid as it is reused.
	rhsf      ode.Func
	onRecord  func(t float64, y []float64)
	onMonitor func(t float64, y []float64)
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// sourceBuf returns a fresh, empty sample slice for a source-recording
// mode. The samples are the mode's product — they outlive the arena's next
// mode, so they are never pooled — but neighbouring modes of a sweep record
// nearly the same number, so the last count plus an eighth is the right
// capacity: appending from a fixed 1024 doubled twice per mode at
// production sizes and kept the slack.
func (sc *Scratch) sourceBuf() []Sample {
	if sc.srcCount == 0 {
		return make([]Sample, 0, 1024)
	}
	return make([]Sample, 0, sc.srcCount+sc.srcCount/8)
}

// stateBuf returns the zeroed initial state vector of a new mode: n live
// entries, with capacity reserved up front for the largest layout the mode
// can grow to (capHint), so hierarchy growth re-slices instead of
// reallocating.
func (sc *Scratch) stateBuf(n, capHint int) []float64 {
	sc.cur = 0
	return sc.slot(0, n, capHint)
}

// resizeBuf returns the zeroed target buffer of a hierarchy-resize event,
// alternating slots so the previous state stays readable during copy-over.
func (sc *Scratch) resizeBuf(n, capHint int) []float64 {
	sc.cur ^= 1
	return sc.slot(sc.cur, n, capHint)
}

// spareBuf returns the slot the state does not occupy (the next resize
// reuses it) as zeroed scratch.
func (sc *Scratch) spareBuf(n, capHint int) []float64 {
	return sc.slot(sc.cur^1, n, capHint)
}

func (sc *Scratch) slot(i, n, capHint int) []float64 {
	if capHint < n {
		capHint = n
	}
	b := sc.state[i]
	if cap(b) < n {
		b = make([]float64, n, capHint)
		sc.state[i] = b
	}
	b = b[:n]
	clear(b)
	return b
}

// integrator returns the arena's default integrator, Reset to the state a
// fresh ode.NewDVERK would have (so reuse is bitwise-invisible).
func (sc *Scratch) integrator(rtol, atol float64) *ode.Adaptive {
	if sc.dverk == nil {
		sc.dverk = ode.NewDVERK(rtol, atol)
		return sc.dverk
	}
	sc.dverk.Reset()
	sc.dverk.RTol, sc.dverk.ATol = rtol, atol
	return sc.dverk
}
