package core

import "plinger/internal/ode"

// Scratch is a per-worker evolution arena: every buffer a mode evolution
// needs — the in-flight mode state, the ODE state vector and its
// hierarchy-resize ping-pong partner, the free-streaming ratio tables and
// the default integrator with its Runge-Kutta stage buffers — allocated
// once at the largest layout a worker has seen and re-sliced per mode.
// A dispatch worker that owns one Scratch and threads it through
// Model.EvolveWith runs the steady-state per-mode hot path without heap
// allocation beyond the Result it hands back (which must outlive the next
// mode), so a multi-core sweep stops feeding the garbage collector exactly
// where the paper's scaling curves need the cores to stay busy.
//
// A Scratch is NOT safe for concurrent use: it belongs to one worker
// goroutine at a time. Results returned by EvolveWith never alias the
// scratch, so they may be retained after the scratch moves on to the next
// mode. The zero value is ready to use.
type Scratch struct {
	m mode

	// state holds the ODE state vector; resize events ping-pong between
	// the two slots so the copy-over reads one while writing the other.
	state [2][]float64
	cur   int

	// rA/rB back the mode's free-streaming recurrence ratio tables; the
	// values depend only on l, so once grown they serve every mode.
	rA, rB []float64

	// dverk is the reused default integrator (built on first use).
	dverk *ode.Adaptive

	// srcCount is the sample count of the arena's last source-recording
	// mode; it seeds the next mode's capacity (see sourceBuf).
	srcCount int

	// Bound-method closures over &sc.m, created once per arena: a method
	// value like m.rhs allocates at every use site, and the right-hand
	// side is handed to the integrator once per integration segment. The
	// receiver is always the arena's own mode slot, so the closures stay
	// valid as the slot is reused mode after mode.
	rhsf      ode.Func
	onRecord  func(t float64, y []float64)
	onMonitor func(t float64, y []float64)

	// bat is the lockstep multi-k driver of EvolveBatchWith; its member
	// mode slots and closures live here for the same reuse reasons as the
	// scalar slot above. The state ping-pong, the ratio tables and the
	// pooled integrator are shared with the scalar path — an arena runs
	// either one mode or one batch at a time, never both.
	bat        batch
	brhsf      ode.Func
	bOnRecord  func(t float64, y []float64)
	bOnMonitor func(t float64, y []float64)
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
