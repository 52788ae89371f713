package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/cosmology"
	"plinger/internal/obs"
)

// Table builds are rare (once per cached model) but expensive enough to show
// up as a cold-request latency cliff, so they get their own series.
var (
	obsTableBuilds = obs.Default.Counter("plinger_core_tablebuilds_total", "",
		"evaluation-table builds (one per model, on first use)")
	obsTableBuildSeconds = obs.Default.Histogram("plinger_core_tablebuild_seconds", "",
		"wall time of one evaluation-table build", obs.DefBuckets(), 1)
)

// The flattened evaluation tables of the fast evolution engine. Every
// right-hand-side evaluation of the reference path pays two natural logs,
// two spline binary searches and two exponentials just to look up the
// background densities, the Thomson opacity and the baryon sound speed at
// the current scale factor. The fast engine precomputes all of them — plus
// the optical depth and visibility — on one shared uniform-in-ln-a grid per
// model, so the hot loop does a single log, one direct index computation
// and one set of fused cubic interpolation weights applied to one
// cache-line-sized row (the same direct-indexing design as
// specfunc.BesselTable).
const (
	// tabLnAMin matches the tau table's deepest scale factor (a = 1e-10);
	// evolutions never start below a = 2e-8, so lookups clamp well inside.
	tabLnAMin = -23.025850929940457
	tabLnAMax = 0.0
	// tabN sets the resolution: d(ln a) ~ 5.6e-3, which keeps the cubic
	// interpolation error of even the steepest tabulated quantity (the
	// log-opacity through recombination) around 1e-6 relative — far below
	// the 1e-3 fast-engine budget — while the hot rows stay small enough
	// to live in cache next to the state vectors.
	tabN = 4096
)

// hotRow holds the quantities every right-hand-side evaluation consumes at
// one ln-a knot — exactly one 64-byte cache line, so a lookup touches four
// consecutive lines. The opacity is stored in log space: through
// recombination it falls by many e-folds across a few grid cells, and
// interpolating it linearly would lose ~1e-2 of relative accuracy exactly
// where the visibility sources peak (the reference spline works in log
// space for the same reason).
type hotRow struct {
	hconf float64
	c     float64 // 8 pi G a^2 rho per species, as cosmology.Grho
	b     float64
	g     float64
	nu    float64
	hnu   float64
	lnKd  float64 // ln Thomson opacity
	cs2   float64 // baryon sound speed squared
}

// auxRow holds the per-accepted-step quantities (the source recorder reads
// them once per step, not once per evaluation), in log space like lnKd.
type auxRow struct {
	lnKappa float64 // ln optical depth to the present
	lnVis   float64 // ln visibility: lnKd - kappa
}

// tabThermo carries the thermodynamic outputs of one hot lookup, and the
// slopes d ln kd, d cs2 and d(aH) per unit ln a that the slip regime needs
// (see slipRHS), from the derivative of the same cubic.
type tabThermo struct {
	Kd, Cs2             float64
	DlnKd, DCs2, DHConf float64
}

// EvalTables is the flattened background + thermodynamics lookup for one
// model. Immutable after construction and safe for concurrent readers.
type EvalTables struct {
	lnAMin float64
	inv    float64 // knots per unit ln a
	hot    []hotRow
	aux    []auxRow
}

// buildEvalTables fills the table from the exact splines. pfor runs the
// knot loop (signature dispatch.ParallelFor); nil builds serially.
func buildEvalTables(m *Model, pfor func(workers, n int, body func(i int))) *EvalTables {
	t := &EvalTables{
		lnAMin: tabLnAMin,
		inv:    float64(tabN-1) / (tabLnAMax - tabLnAMin),
		hot:    make([]hotRow, tabN),
		aux:    make([]auxRow, tabN),
	}
	dl := (tabLnAMax - tabLnAMin) / float64(tabN-1)
	if pfor == nil {
		pfor = func(_, n int, body func(int)) {
			for i := 0; i < n; i++ {
				body(i)
			}
		}
	}
	pfor(0, tabN, func(i int) {
		lnA := tabLnAMin + float64(i)*dl
		a := math.Exp(lnA)
		var g cosmology.Grho
		m.BG.Eval(a, &g)
		kd, cs2, kappa, _ := m.TH.AtLnA(lnA)
		lnKd := math.Log(kd)
		t.hot[i] = hotRow{
			hconf: g.HConf, c: g.C, b: g.B, g: g.G, nu: g.Nu, hnu: g.HNu,
			lnKd: lnKd, cs2: cs2,
		}
		t.aux[i] = auxRow{lnKappa: math.Log(kappa), lnVis: lnKd - kappa}
	})
	return t
}

// stencil returns the clamped 4-point index stencil, the uniform cubic
// Lagrange weights (knots {-1, 0, 1, 2}) for scale factor a, and the
// offset f from knot i they were formed at. The stencil shifts inward at
// the edges by index clamping (C0 there, which only affects a <= 1e-10 and
// a = 1).
func (t *EvalTables) stencil(a float64) (im, i, i1, i2 int, wm, w0, w1, w2, f float64) {
	u := (math.Log(a) - t.lnAMin) * t.inv
	n := len(t.hot)
	if u < 0 {
		u = 0
	}
	if u > float64(n-1) {
		u = float64(n - 1)
	}
	i = int(u)
	if i > n-2 {
		i = n - 2
	}
	f = u - float64(i)
	im, i2 = i-1, i+2
	if im < 0 {
		im = 0
	}
	if i2 > n-1 {
		i2 = n - 1
	}
	f1 := f - 1.0
	f2 := f - 2.0
	fp := f + 1.0
	wm = -f * f1 * f2 / 6.0
	w0 = fp * f1 * f2 / 2.0
	w1 = -fp * f * f2 / 2.0
	w2 = fp * f * f1 / 6.0
	return im, i, i + 1, i2, wm, w0, w1, w2, f
}

// Eval fills g and th at scale factor a: one log, one index, one weight
// set shared by all hot fields. It fills only the fields the evolution
// consumes — Total, Lambda and PHNu3 stay zero (their effect is already
// inside the tabulated HConf; the aux accessors cover the rest).
func (t *EvalTables) Eval(a float64, g *cosmology.Grho, th *tabThermo) {
	im, i0, i1, i2, wm, w0, w1, w2, f := t.stencil(a)
	rm, r0, r1, r2 := &t.hot[im], &t.hot[i0], &t.hot[i1], &t.hot[i2]

	g.A = a
	g.HConf = wm*rm.hconf + w0*r0.hconf + w1*r1.hconf + w2*r2.hconf
	g.C = wm*rm.c + w0*r0.c + w1*r1.c + w2*r2.c
	g.B = wm*rm.b + w0*r0.b + w1*r1.b + w2*r2.b
	g.G = wm*rm.g + w0*r0.g + w1*r1.g + w2*r2.g
	g.Nu = wm*rm.nu + w0*r0.nu + w1*r1.nu + w2*r2.nu
	g.HNu = wm*rm.hnu + w0*r0.hnu + w1*r1.hnu + w2*r2.hnu
	g.Total, g.Lambda, g.PHNu3 = 0, 0, 0
	th.Kd = math.Exp(wm*rm.lnKd + w0*r0.lnKd + w1*r1.lnKd + w2*r2.lnKd)
	th.Cs2 = wm*rm.cs2 + w0*r0.cs2 + w1*r1.cs2 + w2*r2.cs2

	// d/d(ln a) of the same cubic: the weights' derivatives in f, per knot.
	f3 := 3.0 * f * f
	dm := -(f3 - 6.0*f + 2.0) / 6.0 * t.inv
	d0 := (f3 - 4.0*f - 1.0) / 2.0 * t.inv
	d1 := -(f3 - 2.0*f - 2.0) / 2.0 * t.inv
	d2 := (f3 - 1.0) / 6.0 * t.inv
	th.DlnKd = dm*rm.lnKd + d0*r0.lnKd + d1*r1.lnKd + d2*r2.lnKd
	th.DCs2 = dm*rm.cs2 + d0*r0.cs2 + d1*r1.cs2 + d2*r2.cs2
	th.DHConf = dm*rm.hconf + d0*r0.hconf + d1*r1.hconf + d2*r2.hconf
}

// OpticalDepth interpolates the optical depth at scale factor a from the
// aux rows (one lookup + one exponential; consumed once per accepted step
// by the source recorder).
func (t *EvalTables) OpticalDepth(a float64) float64 {
	im, i0, i1, i2, wm, w0, w1, w2, _ := t.stencil(a)
	return math.Exp(wm*t.aux[im].lnKappa + w0*t.aux[i0].lnKappa +
		w1*t.aux[i1].lnKappa + w2*t.aux[i2].lnKappa)
}

// Visibility interpolates g(a) = kappa-dot e^-kappa from the aux rows.
func (t *EvalTables) Visibility(a float64) float64 {
	im, i0, i1, i2, wm, w0, w1, w2, _ := t.stencil(a)
	return math.Exp(wm*t.aux[im].lnVis + w0*t.aux[i0].lnVis +
		w1*t.aux[i1].lnVis + w2*t.aux[i2].lnVis)
}

// tablesState is the lazily built per-model table cache. It lives behind a
// pointer in Model so that Model values stay free of locks.
type tablesState struct {
	mu  sync.Mutex
	tab atomic.Pointer[EvalTables]

	// radShrink is the model's radiation-negligible time (see
	// Model.radShrinkTau), found on first use.
	radShrinkOnce sync.Once
	radShrink     float64
}

// EnsureEvalTables returns the model's flattened evaluation tables,
// building them on first use. pfor, when non-nil, runs the build loop in
// parallel (pass dispatch.ParallelFor; core cannot import dispatch). Safe
// for concurrent callers; all of them share one build.
func (mdl *Model) EnsureEvalTables(pfor func(workers, n int, body func(i int))) *EvalTables {
	ts := mdl.tables
	if t := ts.tab.Load(); t != nil {
		return t
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t := ts.tab.Load(); t != nil {
		return t
	}
	start := time.Now()
	t := buildEvalTables(mdl, pfor)
	obsTableBuilds.Inc()
	obsTableBuildSeconds.Observe(time.Since(start).Seconds())
	ts.tab.Store(t)
	return t
}

// radShrinkTau returns the conformal time at which the photon +
// massless-neutrino share of the background falls below radShrinkEps
// (+Inf when it never does: toy cosmologies). It depends on the model
// alone, so the bisection on the exact background runs once per model and
// every mode derives its shrink and streaming stops from the one value.
func (mdl *Model) radShrinkTau() float64 {
	ts := mdl.tables
	ts.radShrinkOnce.Do(func() {
		var g cosmology.Grho
		frac := func(a float64) float64 {
			mdl.BG.Eval(a, &g)
			return (g.G + g.Nu) / g.Total
		}
		if frac(1.0) > radShrinkEps {
			ts.radShrink = math.Inf(1)
			return
		}
		lo, hi := 1e-6, 1.0
		for i := 0; i < 60 && hi-lo > 1e-9; i++ {
			mid := math.Sqrt(lo * hi)
			if frac(mid) > radShrinkEps {
				lo = mid
			} else {
				hi = mid
			}
		}
		ts.radShrink = mdl.BG.Tau(hi)
	})
	return ts.radShrink
}
