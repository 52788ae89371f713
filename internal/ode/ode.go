// Package ode provides the time integrators for the Einstein-Boltzmann
// system. The paper integrates each k mode with DVERK, the Verner 6(5)
// Runge-Kutta pair obtained from netlib; this package implements that exact
// tableau with adaptive step-size control, together with the classic
// Fehlberg 4(5) pair and fixed-step RK4 as comparators for the ablation
// benchmarks.
//
// The integrators also keep operation statistics (steps, rejections,
// right-hand-side evaluations) that feed the flop-rate model used to
// reproduce the paper's Mflop/Gflop tables: on 1995 hardware flop rates were
// the natural throughput metric, and the paper derives the T3D rate "by
// comparison with the C90", i.e. from an operation count, exactly as done
// here.
//
// The adaptive integrators keep the state they hand back free of subnormal
// numbers: an accepted step stores exact 0 for every component smaller than
// flushBelow in magnitude. A Boltzmann hierarchy of fixed length always has
// moments above l ~ k tau falling like (k tau)^l/(2l+1)!! through
// 1e-308..5e-324 on their way to zero, and on x86 each multiply or add that
// touches one costs a ~100-cycle microcode assist, in the right-hand side
// and in every stage pass here. The floor is unconditional; there is no
// switch and no second path.
//
// On amd64 the vector passes of a step — the stage sums, the two final sums
// and the accept's flush — run as SSE2 assembly (kernels_amd64.s). Each
// lane performs the same IEEE multiplies and adds, in the same order, as
// the Go loop it replaces (accumGo, flushGo), and no fused multiply-add, so
// every trajectory is bit for bit the Go loops'. The error norm stays a
// scalar sum in index order. Other architectures run the Go loops, which
// their compilers may fuse (arm64 does): bits are the same across
// processes only where every process is amd64.
package ode

import (
	"errors"
	"fmt"
	"math"
)

// Func is the right-hand side of the ODE system y' = f(t, y); it must fill
// dydt and may not retain either slice.
type Func func(t float64, y, dydt []float64)

// Stats reports the work performed by an integration.
type Stats struct {
	Steps    int // accepted steps
	Rejected int // rejected (re-tried) steps
	Evals    int // right-hand-side evaluations
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Steps += other.Steps
	s.Rejected += other.Rejected
	s.Evals += other.Evals
}

// Integrator advances an ODE system from t0 to t1 in place.
type Integrator interface {
	// Integrate advances y from t0 to t1, returning work statistics.
	Integrate(f Func, t0, t1 float64, y []float64) (Stats, error)
	// Name identifies the method for benchmark tables.
	Name() string
}

// StepObserver is the optional step-callback contract: an integrator that
// can report every accepted step (time and state) implements it. Callers
// that must see the trajectory — core.Evolve recording line-of-sight
// sources, the constraint monitor — require this interface and reject
// integrators that silently drop the callback. Both integrators in this
// package implement it.
type StepObserver interface {
	// SetOnStep installs fn to be called after every accepted step with
	// the new time and state; nil removes the callback.
	SetOnStep(fn func(t float64, y []float64))
}

// ErrMaxSteps is returned when the step budget is exhausted before reaching
// the requested end time (typically a sign of unresolved stiffness).
var ErrMaxSteps = errors.New("ode: maximum number of steps exceeded")

// ErrStepUnderflow is returned when the controller drives the step size
// below the floor.
var ErrStepUnderflow = errors.New("ode: step size underflow")

// tableau holds an explicit embedded Runge-Kutta pair.
type tableau struct {
	name   string
	stages int
	order  float64 // order of the propagating solution (for step control)
	c      []float64
	a      [][]float64 // a[i] has i entries (strictly lower triangular)
	b      []float64   // high-order weights (propagated)
	bhat   []float64   // embedded lower-order weights (error estimate)

	// derived coefficient lists, see derive: the non-zero entries of each
	// a row, of b, and of b - bhat (the error-estimate weights).
	anz  [][]nzc
	bnz  []nzc
	dbnz []nzc
}

// nzc is one non-zero tableau coefficient and the stage it weights.
type nzc struct {
	j int
	c float64
}

func nonzeros(w []float64) []nzc {
	var nz []nzc
	for j, c := range w {
		if c != 0 {
			nz = append(nz, nzc{j, c})
		}
	}
	return nz
}

// derive fills the non-zero coefficient lists on first use (each Adaptive
// carries its own tableau copy, so the cache is per-integrator). The step
// kernel iterates these instead of testing every coefficient of every
// stage against zero in its inner loops.
func (tab *tableau) derive() {
	if tab.anz != nil {
		return
	}
	tab.anz = make([][]nzc, tab.stages)
	for s := 1; s < tab.stages; s++ {
		tab.anz[s] = nonzeros(tab.a[s])
	}
	tab.bnz = nonzeros(tab.b)
	db := make([]float64, tab.stages)
	for s := range db {
		db[s] = tab.b[s] - tab.bhat[s]
	}
	tab.dbnz = nonzeros(db)
}

// accumGo computes dst = base + h * sum_j c_j k_j as a single fused pass for
// the small stage counts of embedded RK pairs (dst == base is allowed and
// accumulates in place). One pass with all stage slices held in locals is
// substantially faster than a saxpy sweep per stage: the state vectors of
// the Einstein-Boltzmann hierarchies are wide, and every avoided pass over
// them is bandwidth saved. Each component is the chain
// ((base + c_0 k_0) + c_1 k_1) + ... with c_j = h * coefficient; accum's
// kernel keeps that chain per lane.
func accumGo(dst, base []float64, h float64, nz []nzc, k [][]float64) {
	n := len(dst)
	base = base[:n]
	switch len(nz) {
	case 1:
		c0 := h * nz[0].c
		k0 := k[nz[0].j][:n]
		for i := range dst {
			dst[i] = base[i] + c0*k0[i]
		}
	case 2:
		c0, c1 := h*nz[0].c, h*nz[1].c
		k0, k1 := k[nz[0].j][:n], k[nz[1].j][:n]
		for i := range dst {
			dst[i] = base[i] + c0*k0[i] + c1*k1[i]
		}
	case 3:
		c0, c1, c2 := h*nz[0].c, h*nz[1].c, h*nz[2].c
		k0, k1, k2 := k[nz[0].j][:n], k[nz[1].j][:n], k[nz[2].j][:n]
		for i := range dst {
			dst[i] = base[i] + c0*k0[i] + c1*k1[i] + c2*k2[i]
		}
	case 4:
		c0, c1, c2, c3 := h*nz[0].c, h*nz[1].c, h*nz[2].c, h*nz[3].c
		k0, k1, k2, k3 := k[nz[0].j][:n], k[nz[1].j][:n], k[nz[2].j][:n], k[nz[3].j][:n]
		for i := range dst {
			dst[i] = base[i] + c0*k0[i] + c1*k1[i] + c2*k2[i] + c3*k3[i]
		}
	case 5:
		c0, c1, c2, c3, c4 := h*nz[0].c, h*nz[1].c, h*nz[2].c, h*nz[3].c, h*nz[4].c
		k0, k1, k2, k3, k4 := k[nz[0].j][:n], k[nz[1].j][:n], k[nz[2].j][:n], k[nz[3].j][:n], k[nz[4].j][:n]
		for i := range dst {
			dst[i] = base[i] + c0*k0[i] + c1*k1[i] + c2*k2[i] + c3*k3[i] + c4*k4[i]
		}
	case 6:
		c0, c1, c2, c3, c4, c5 := h*nz[0].c, h*nz[1].c, h*nz[2].c, h*nz[3].c, h*nz[4].c, h*nz[5].c
		k0, k1, k2, k3, k4, k5 := k[nz[0].j][:n], k[nz[1].j][:n], k[nz[2].j][:n], k[nz[3].j][:n], k[nz[4].j][:n], k[nz[5].j][:n]
		for i := range dst {
			dst[i] = base[i] + c0*k0[i] + c1*k1[i] + c2*k2[i] + c3*k3[i] + c4*k4[i] + c5*k5[i]
		}
	case 7:
		c0, c1, c2, c3, c4, c5, c6 := h*nz[0].c, h*nz[1].c, h*nz[2].c, h*nz[3].c, h*nz[4].c, h*nz[5].c, h*nz[6].c
		k0, k1, k2, k3, k4, k5, k6 := k[nz[0].j][:n], k[nz[1].j][:n], k[nz[2].j][:n], k[nz[3].j][:n], k[nz[4].j][:n], k[nz[5].j][:n], k[nz[6].j][:n]
		for i := range dst {
			dst[i] = base[i] + c0*k0[i] + c1*k1[i] + c2*k2[i] + c3*k3[i] + c4*k4[i] + c5*k5[i] + c6*k6[i]
		}
	default:
		if n > 0 && &dst[0] != &base[0] {
			copy(dst, base)
		}
		for _, t := range nz {
			c := h * t.c
			kj := k[t.j][:n]
			for i, v := range kj {
				dst[i] += c * v
			}
		}
	}
}

// verner65 is the 8-stage 6(5) pair of J.H. Verner used by the netlib DVERK
// code of Hull, Enright & Jackson — the integrator named in Section 2 of
// the paper.
var verner65 = tableau{
	name:   "DVERK (Verner 6(5))",
	stages: 8,
	order:  6,
	c:      []float64{0, 1.0 / 6.0, 4.0 / 15.0, 2.0 / 3.0, 5.0 / 6.0, 1.0, 1.0 / 15.0, 1.0},
	a: [][]float64{
		{},
		{1.0 / 6.0},
		{4.0 / 75.0, 16.0 / 75.0},
		{5.0 / 6.0, -8.0 / 3.0, 5.0 / 2.0},
		{-165.0 / 64.0, 55.0 / 6.0, -425.0 / 64.0, 85.0 / 96.0},
		{12.0 / 5.0, -8.0, 4015.0 / 612.0, -11.0 / 36.0, 88.0 / 255.0},
		{-8263.0 / 15000.0, 124.0 / 75.0, -643.0 / 680.0, -81.0 / 250.0, 2484.0 / 10625.0, 0.0},
		{3501.0 / 1720.0, -300.0 / 43.0, 297275.0 / 52632.0, -319.0 / 2322.0, 24068.0 / 84065.0, 0.0, 3850.0 / 26703.0},
	},
	b:    []float64{3.0 / 40.0, 0.0, 875.0 / 2244.0, 23.0 / 72.0, 264.0 / 1955.0, 0.0, 125.0 / 11592.0, 43.0 / 616.0},
	bhat: []float64{13.0 / 160.0, 0.0, 2375.0 / 5984.0, 5.0 / 16.0, 12.0 / 85.0, 3.0 / 44.0, 0.0, 0.0},
}

// fehlberg45 is the classic RKF4(5) pair, used as the baseline integrator in
// the ablation benchmarks.
var fehlberg45 = tableau{
	name:   "RKF4(5)",
	stages: 6,
	order:  5,
	c:      []float64{0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0},
	a: [][]float64{
		{},
		{1.0 / 4.0},
		{3.0 / 32.0, 9.0 / 32.0},
		{1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0},
		{439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0},
		{-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0},
	},
	b:    []float64{16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0},
	bhat: []float64{25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0},
}

// flushBelow is the magnitude under which an accepted step stores exact 0.
// 1e-200 sits 188 decades below the smallest absolute tolerance the package
// defaults to, so in a linear system nothing the error norm or a caller
// reads can see it, and 108 decades above the subnormal range, so no chain
// of stage products starting from a surviving component can reach it.
const flushBelow = 1e-200

// flushGo copies src into dst, storing +0 for every component with
// |v| < flushBelow. A NaN fails the comparison and is copied.
func flushGo(dst, src []float64) {
	for i, v := range src {
		if math.Abs(v) < flushBelow {
			v = 0
		}
		dst[i] = v
	}
}

// Adaptive is an adaptive embedded Runge-Kutta integrator. The state it
// returns and shows to OnStep holds no component with 0 < |v| < flushBelow.
type Adaptive struct {
	tab tableau

	// RTol and ATol are the relative and absolute error tolerances.
	RTol, ATol float64
	// InitialStep is the first trial step (a heuristic is used if zero).
	InitialStep float64
	// MaxStep caps the step size (no cap if zero).
	MaxStep float64
	// MinStep is the underflow floor (defaults to 16*eps*|t|).
	MinStep float64
	// MaxSteps bounds the number of accepted+rejected steps (default 10^7).
	MaxSteps int
	// OnStep, if non-nil, is called after every accepted step with the new
	// time and state; used to capture line-of-sight sources.
	OnStep func(t float64, y []float64)
	// PI enables proportional-integral (Gustafsson) step-size control on
	// accepted steps: the next step size uses both the current and the
	// previous error norm, damping the accept/reject oscillation of the
	// elementary controller and cutting the rejected-step fraction. Off by
	// default (the elementary controller is the reference behaviour).
	PI bool
	// CarryStep makes each Integrate call resume from the final controller
	// step size of the previous call instead of restarting from
	// InitialStep. The fast evolution engine integrates one mode as many
	// short segments (hierarchy-growth events, the tight-coupling switch),
	// and without carrying the step every segment would pay a fresh
	// ramp-up from the tiny initial step. Off by default.
	CarryStep bool

	// controller state carried across calls when CarryStep is set
	lastH   float64
	prevErr float64

	// scratch buffers reused across calls; ensure grows them monotonically
	// and re-slices, so an integrator pooled across systems of varying
	// dimension (the arena of a sweep worker, or one mode's hierarchy
	// resize events) stops allocating once it has seen its largest system.
	k    [][]float64
	ytmp []float64
	yerr []float64
	ynew []float64
}

// NewDVERK returns the paper's integrator: Verner's 6(5) pair with the
// given tolerances.
func NewDVERK(rtol, atol float64) *Adaptive {
	return &Adaptive{tab: verner65, RTol: rtol, ATol: atol}
}

// NewRKF45 returns the Fehlberg 4(5) comparator.
func NewRKF45(rtol, atol float64) *Adaptive {
	return &Adaptive{tab: fehlberg45, RTol: rtol, ATol: atol}
}

// Name implements Integrator.
func (ad *Adaptive) Name() string { return ad.tab.name }

// SetOnStep implements StepObserver.
func (ad *Adaptive) SetOnStep(fn func(t float64, y []float64)) { ad.OnStep = fn }

// Reset clears every run-specific control setting — carried step size, PI
// history, step caps, budgets, tolerances and the step callback — returning
// the integrator to its freshly constructed state while keeping the scratch
// buffers. A pooled integrator Reset between modes produces bitwise the
// same trajectory as a newly constructed one: the buffers are fully
// overwritten before being read on every step, so only the control state
// carries history.
func (ad *Adaptive) Reset() {
	ad.RTol, ad.ATol = 0, 0
	ad.InitialStep = 0
	ad.MaxStep = 0
	ad.MinStep = 0
	ad.MaxSteps = 0
	ad.OnStep = nil
	ad.PI = false
	ad.CarryStep = false
	ad.lastH = 0
	ad.prevErr = 0
}

func (ad *Adaptive) ensure(n int) {
	if ad.k == nil {
		ad.k = make([][]float64, ad.tab.stages)
	}
	if cap(ad.ytmp) < n {
		for i := range ad.k {
			ad.k[i] = make([]float64, n)
		}
		ad.ytmp = make([]float64, n)
		ad.yerr = make([]float64, n)
		ad.ynew = make([]float64, n)
		return
	}
	for i := range ad.k {
		ad.k[i] = ad.k[i][:n]
	}
	ad.ytmp = ad.ytmp[:n]
	ad.yerr = ad.yerr[:n]
	ad.ynew = ad.ynew[:n]
}

// Integrate advances y from t0 to t1 (t1 > t0) in place.
func (ad *Adaptive) Integrate(f Func, t0, t1 float64, y []float64) (Stats, error) {
	var st Stats
	if t1 == t0 {
		return st, nil
	}
	if t1 < t0 {
		return st, fmt.Errorf("ode: backwards integration not supported (t0=%g > t1=%g)", t0, t1)
	}
	ad.ensure(len(y))
	ad.tab.derive()
	rtol, atol := ad.RTol, ad.ATol
	if rtol <= 0 {
		rtol = 1e-6
	}
	if atol <= 0 {
		atol = 1e-12
	}
	maxSteps := ad.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10000000
	}
	h := ad.InitialStep
	if ad.CarryStep && ad.lastH > 0 {
		h = ad.lastH
	} else {
		ad.prevErr = 0
	}
	if h <= 0 {
		h = (t1 - t0) * 1e-4
	}
	if ad.MaxStep > 0 && h > ad.MaxStep {
		h = ad.MaxStep
	}
	t := t0
	order := ad.tab.order
	for iter := 0; ; iter++ {
		if iter >= maxSteps {
			return st, fmt.Errorf("%w (t=%g of [%g,%g], %d steps)", ErrMaxSteps, t, t0, t1, iter)
		}
		if t >= t1 {
			ad.lastH = h
			return st, nil
		}
		// hTry is the trial step actually taken; h stays the controller's
		// step so a clamped final segment does not shrink the carried step.
		hTry := h
		last := false
		if t+hTry >= t1 {
			hTry = t1 - t
			last = true
		}
		minStep := ad.MinStep
		if minStep <= 0 {
			minStep = 16.0 * 2.220446049250313e-16 * math.Max(math.Abs(t), math.Abs(t1))
		}
		// One embedded RK step of size hTry.
		errNorm := ad.step(f, t, hTry, y, rtol, atol, &st)
		if math.IsNaN(errNorm) || math.IsInf(errNorm, 0) {
			// Retry with a much smaller step.
			st.Rejected++
			h = hTry * 0.1
			if h < minStep {
				return st, fmt.Errorf("%w at t=%g (NaN in error estimate)", ErrStepUnderflow, t)
			}
			continue
		}
		if errNorm <= 1.0 {
			// Accept, flushing what would decay into the subnormal range.
			flush(y, ad.ynew)
			t += hTry
			st.Steps++
			if ad.OnStep != nil {
				ad.OnStep(t, y)
			}
			if last && t >= t1 {
				ad.lastH = h
				return st, nil
			}
			var fac float64
			if ad.PI && ad.prevErr > 0 {
				// PI controller (Hairer's dopri convention): damp the next
				// step with the previous error norm as well, so a
				// near-threshold accept is not followed by an overconfident
				// growth and reject. The exponents split 1/order into a
				// proportional and an integral part; the raised safety
				// factor compensates the controller's lower steady-state
				// error norm (0.9 here would settle at err ~ 0.9^20 = 0.12
				// and take ~20% more steps than the elementary controller).
				e := errNorm
				if e < 1e-12 {
					e = 1e-12
				}
				fac = 0.97 * math.Pow(e, -0.7/order) * math.Pow(ad.prevErr, 0.4/order)
			} else {
				fac = 0.9 * math.Pow(errNorm+1e-300, -1.0/order)
			}
			if fac > 5.0 {
				fac = 5.0
			}
			if ad.PI {
				ad.prevErr = errNorm
				if ad.prevErr < 1e-12 {
					ad.prevErr = 1e-12
				}
			}
			h = hTry * fac
			if ad.MaxStep > 0 && h > ad.MaxStep {
				h = ad.MaxStep
			}
		} else {
			st.Rejected++
			fac := 0.9 * math.Pow(errNorm, -1.0/order)
			if fac < 0.1 {
				fac = 0.1
			}
			h = hTry * fac
			if h < minStep {
				return st, fmt.Errorf("%w at t=%g (h=%g)", ErrStepUnderflow, t, h)
			}
		}
	}
}

// step performs a single trial step of size h from (t, y), leaving the
// candidate solution in ad.ynew and returning the scaled error norm.
//
// Each stage state and the final combination are produced by one fused
// accumulation pass over the non-zero tableau coefficients (see accumGo),
// rather than a per-component dot product with zero tests over all stages:
// for the wide Einstein-Boltzmann systems this combination work is where
// most of an evolution's time outside the right-hand side itself goes.
func (ad *Adaptive) step(f Func, t, h float64, y []float64, rtol, atol float64, st *Stats) float64 {
	tab := &ad.tab
	n := len(y)
	k := ad.k
	// Stage 0.
	f(t, y, k[0])
	st.Evals++
	for s := 1; s < tab.stages; s++ {
		yt := ad.ytmp[:n]
		accum(yt, y, h, tab.anz[s], k)
		f(t+tab.c[s]*h, yt, k[s])
		st.Evals++
	}
	// Combine: ynew = y + h sum b_s k_s, yerr = h sum (b-bhat)_s k_s.
	yn := ad.ynew[:n]
	accum(yn, y, h, tab.bnz, k)
	ye := ad.yerr[:n]
	for i := range ye {
		ye[i] = 0
	}
	accum(ye, ye, h, tab.dbnz, k)
	var errSum float64
	for i := 0; i < n; i++ {
		ay := math.Abs(y[i])
		if an := math.Abs(yn[i]); an > ay {
			ay = an
		}
		r := ye[i] / (atol + rtol*ay)
		errSum += r * r
	}
	return math.Sqrt(errSum / float64(n))
}

// RK4 is the classical fixed-step fourth-order method, used to cross-check
// convergence orders and as the cheap fixed-cost baseline.
type RK4 struct {
	// Steps is the number of equal steps used across the interval.
	Steps int
	// OnStep, if non-nil, is called after every step with the new time and
	// state (see StepObserver).
	OnStep func(t float64, y []float64)

	k1, k2, k3, k4, ytmp []float64
}

// NewRK4 returns a fixed-step RK4 integrator with n steps per call.
func NewRK4(n int) *RK4 { return &RK4{Steps: n} }

// Name implements Integrator.
func (r *RK4) Name() string { return "RK4 (fixed step)" }

// SetOnStep implements StepObserver.
func (r *RK4) SetOnStep(fn func(t float64, y []float64)) { r.OnStep = fn }

// Integrate implements Integrator.
func (r *RK4) Integrate(f Func, t0, t1 float64, y []float64) (Stats, error) {
	var st Stats
	steps := r.Steps
	if steps <= 0 {
		steps = 100
	}
	n := len(y)
	if cap(r.k1) < n {
		r.k1 = make([]float64, n)
		r.k2 = make([]float64, n)
		r.k3 = make([]float64, n)
		r.k4 = make([]float64, n)
		r.ytmp = make([]float64, n)
	} else {
		r.k1, r.k2, r.k3 = r.k1[:n], r.k2[:n], r.k3[:n]
		r.k4, r.ytmp = r.k4[:n], r.ytmp[:n]
	}
	h := (t1 - t0) / float64(steps)
	t := t0
	for s := 0; s < steps; s++ {
		f(t, y, r.k1)
		for i := 0; i < n; i++ {
			r.ytmp[i] = y[i] + 0.5*h*r.k1[i]
		}
		f(t+0.5*h, r.ytmp, r.k2)
		for i := 0; i < n; i++ {
			r.ytmp[i] = y[i] + 0.5*h*r.k2[i]
		}
		f(t+0.5*h, r.ytmp, r.k3)
		for i := 0; i < n; i++ {
			r.ytmp[i] = y[i] + h*r.k3[i]
		}
		f(t+h, r.ytmp, r.k4)
		for i := 0; i < n; i++ {
			y[i] += h / 6.0 * (r.k1[i] + 2.0*r.k2[i] + 2.0*r.k3[i] + r.k4[i])
		}
		t += h
		st.Steps++
		st.Evals += 4
		if r.OnStep != nil {
			r.OnStep(t, y)
		}
	}
	return st, nil
}
