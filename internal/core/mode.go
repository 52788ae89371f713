package core

import (
	"math"

	"plinger/internal/cosmology"
	"plinger/internal/ode"
)

// mode is the in-flight state of one k evolution.
type mode struct {
	*Model
	p  Params
	k  float64
	k2 float64

	// lmax is the active photon/polarization/massless-neutrino hierarchy
	// cutoff. The reference path fixes it at p.LMax; the fast engine
	// starts it small, grows it with k*tau and ends a source-recording
	// run at shrinkLMax or at streamLMax = -1, the streaming regime that
	// carries no radiation moment at all (see nextStop).
	lmax int
	// grow marks growth as enabled and not yet complete.
	grow bool
	// shrinkAt and streamAt, when positive, are the conformal times at
	// which the hierarchies collapse to shrinkLMax and to the streaming
	// regime (see planLateStops).
	shrinkAt, streamAt float64
	// tab, when non-nil, replaces the spline lookups in gatherSums with
	// the model's flattened evaluation tables; tt receives the
	// thermodynamic fields of the latest lookup on either path (the slopes
	// from the tables only).
	tab *EvalTables
	tt  tabThermo
	// bgCache, when non-nil, is the block's shared background point:
	// gatherSums uses it instead of its own lookup whenever the cached
	// scale factor matches the state's bitwise (see batch.fillBG).
	bgCache *bgPoint

	// state layout
	nvar int
	ia   int // scale factor
	idc  int // delta_c
	itc  int // theta_c (Newtonian only; -1 in synchronous)
	idb  int // delta_b
	itb  int // theta_b
	iphi int // phi (Newtonian; -1 otherwise)
	ieta int // eta (synchronous; -1 otherwise)
	ih   int // h
	ihd  int // h-dot
	ifg  int // photon temperature F_l, l = 0..lmax
	igg  int // photon polarization G_l
	ifn  int // massless neutrino F_l
	ipsn int // massive neutrino Psi(q, l), q-major

	nq  int
	lnu int

	// rA[l] = l/(2l+1), rB[l] = (l+1)/(2l+1): the free-streaming
	// recurrence ratios, precomputed so the hierarchy loops run without
	// per-moment divisions.
	rA, rB []float64

	// srcCap, when h > 0, caps the integrator step inside [lo, hi] — the
	// visibility window of a source-recording run (see evolveBlock); base is
	// the integrator's own MaxStep, restored outside the window.
	srcCap struct{ lo, hi, h, base float64 }
	// ad is the adaptive integrator when one is driving the run (the step
	// cap needs to adjust its MaxStep across segments).
	ad *ode.Adaptive

	// Current right-hand-side regime: tight coupling, then the slip regime,
	// then neither; slipX is the exchange its latest evaluation used.
	tca, slip bool
	slipX     float64

	// flops accumulates the operation-count model per integration segment,
	// so a growing/shrinking run is billed for the hierarchy it actually
	// carried (see FlopsPerRHS).
	flops float64

	maxResidual float64
	sources     []Sample

	scratch cosmology.Grho

	// sc is the owning evolution arena: the state vector, resize buffers
	// and ratio tables are borrowed from it.
	sc *Scratch
}

// Growth schedule of the fast engine's hierarchy truncation. Moments above
// l ~ k*tau carry no power yet (the free-streaming solution is j_l(k*tau),
// negligible until its turning point), so the active cutoff tracks k*tau
// with a safety margin: growRate sets the slope, growBuffer how many
// moments beyond the causally filled ones stay active (absorbing the
// truncation-closure reflection before it reaches the sourced low l), and
// growFloor the smallest hierarchy ever evolved. Growth happens in chunks
// (growHierarchy) so a mode pays O(log LMax) re-layouts, not O(LMax).
const (
	growRate   = 1.4
	growBuffer = 10
	growFloor  = 8
)

// Late-time hierarchy shrink (fast engine, source-recording runs only).
// Once the photon + massless-neutrino share of the background drops below
// radShrinkEps, the radiation hierarchies can only move the metric — and
// hence the surviving ISW source — at that fractional level times their
// own truncation error, far below the 1e-3 engine budget; shrinkLMax
// moments under the free-streaming closure keep the low moments (which
// feed the Einstein sums) to the accuracy that still matters.
const (
	radShrinkEps = 1e-2
	shrinkLMax   = 6
)

// Radiation streaming (fast engine, conformal-Newtonian source-recording
// runs only). The shrunk hierarchies still drag the integrator through
// every k-periodic oscillation of the truncated free-streaming solution
// for the rest of the run, and the line-of-sight sources see none of it:
// for k*tau >> 1 after decoupling the monopoles sit at Theta_0 + psi = 0
// and the higher moments average out. Once the shrink condition holds and
// k*tau >= streamKTau the state therefore drops every photon, polarization
// and massless-neutrino moment (cutoff streamLMax: none carried) and the
// Einstein sums close with delta_gamma = delta_nu = -4 phi, theta = sigma
// = 0; the fluids, the metric and the massive-neutrino hierarchies evolve
// on. The one-off error is the anisotropic stress dropped from psi at the
// switch. Measured on SCDM against the same engine tracking the 6-moment
// hierarchies to the end, the largest relative C_l shift over every l is
// 8.7e-7 at LMaxCl 1000 / NK 1200 (2.2e-6 unbatched), 8.0e-7 at 300 and
// 2.5e-7 at 150/130 — three decades inside the engine's 1e-3 budget — and
// the Einstein-constraint residual falls from 3.6e-4 to 2e-6, the closure
// being nearer the streaming solution than six truncated moments are.
const (
	streamKTau = 45.0
	streamLMax = -1
)

// The slip regime (fast engine with its tables, both gauges). Tight
// coupling is released for everything at kd = tcaFactor*max(k, aH), the
// bound the photon shear needs: its expansion runs in k/kd. The
// baryon-photon slip theta_g - theta_b relaxes at lambda = (1+R) kd, R =
// 4 rho_g/3 rho_b ~ 17 at that moment, so the released equations carry one
// real eigenvalue 18x the one the criterion looked at, and DVERK sat on its
// stability boundary h*lambda = 4.05, an order of magnitude under the
// accuracy-limited step, for 54 % of a paper-scale sweep's accepted steps.
// From the release to the end of the regime the hierarchies therefore run
// as released, but the momentum exchange kd (theta_g - theta_b) in the two
// velocity equations is the second-order quasi-static value of
// slipRHS, whose expansion parameter max(k, aH)/lambda is 5e-4 where
// the shear's has reached 1e-2; seatSlip puts the state's slip on that
// value at both ends. The first order alone, as the first regime has it,
// moves C_l by 5.4e-4 at l = 1000; the second without the seating 1.7e-4.
//
// The regime ends the first time lambda < tcaFactor*max(k, aH), and at the
// latest where the visibility window opens, tauRec - SourceWindowBefore:
// past it low-k modes would enter the regime during recombination, where kd
// collapses faster than the expansion allows for (on its own criterion the
// regime moved C_l by 1.6e-4 at l = 11 for 4-10 % fewer steps on the modes
// that have it). A mode released at or after the window start never takes
// it.

// Source-recording step cap. The line-of-sight sources are linearly
// interpolated from the accepted steps, and through the narrow visibility
// peak the error controller would happily take steps far wider than the
// peak itself: on slow superhorizon modes the recorded g(tau)-weighted
// sources then carry percent-level resampling error, several orders above
// the integrator tolerance, and any change of step policy moves C_l at low
// l by that amount. A KeepSources run therefore caps the step inside the
// visibility window (matching the dense segment of the LOS quadrature
// grid) so the sampling density is set by the physics, not the controller.
//
// SourceWindowBefore/After are that window, and the LOS quadrature
// (internal/spectra) defines its dense segment from them: past the window
// the steps are uncapped and the samples linearly interpolated, so a
// quadrature node must sit exactly on the window end — moving the junction
// 5 Mpc later moves Theta_l(k = 0.05, l = 473) by 1.0e-4 and C_l by up to
// 3.2e-4 at l ~ 940.
const (
	SourceWindowBefore = 120.0 // window start: tauRec - SourceWindowBefore
	SourceWindowAfter  = 180.0 // window end: tauRec + SourceWindowAfter
	srcCapStep         = 3.0   // max step inside the window (Mpc)
	// srcCapLate bounds the step over the free-streaming/ISW era as a
	// fraction of the remaining range, keeping the slowly varying late
	// sources resolved without affecting oscillation-limited modes.
	srcCapLate = 1.0 / 40.0
)

// Evolve integrates one k mode to completion with a private arena; sweep
// workers that evolve many modes should hold a Scratch and call EvolveWith
// instead, which reuses every per-mode buffer across calls.
func (mdl *Model) Evolve(p Params) (*Result, error) {
	return mdl.EvolveWith(p, nil)
}

// EvolveWith integrates one k mode to completion using the caller's arena
// (nil: a private one), as a block of one through evolveBlock. Results are
// bitwise-independent of the scratch — a reused arena produces exactly the
// trajectory a fresh one does — and never alias it, so they stay valid
// after the arena's next mode. The scratch must not be used concurrently.
func (mdl *Model) EvolveWith(p Params, sc *Scratch) (*Result, error) {
	var res [1]*Result
	if err := mdl.evolveBlock([]float64{p.K}, p, nil, sc, res[:]); err != nil {
		return nil, err
	}
	return res[0], nil
}

// nextStop plans the integration segment that starts at tau; m is the
// block's reference member (see batch.integrateSpan). It returns where the
// segment ends — tEnd, or the first planned stop before it — and the
// hierarchy cutoff the state takes there (m.lmax when the stop is no
// re-layout), and sets the source-sampling step cap that applies on the
// way. The planned stops are:
//
//   - growth: the active cutoff stops being safe (nextGrowTau). The new
//     cutoff overshoots the need in chunks, so a mode pays O(log LMax)
//     re-layouts; evolved moments are copied over and newly activated ones
//     seeded at zero (they carry no power yet — the premise of the
//     truncation), the boundary closure continuing at the new last moment.
//   - shrink (shrinkAt): radiation is dynamically negligible and the
//     visibility window is over, so a source-recording run only needs the
//     metric, which the hierarchies move at the level of the radiation
//     share itself; they collapse to shrinkLMax moments under the usual
//     free-streaming closure, exact for the streaming solution.
//   - streaming (streamAt): no radiation moment is carried any more.
//   - the visibility-window edges, where only the step cap changes.
//
// Moments dropped by the last two are gone for good (growth stays off);
// pack zero-fills them, which a KeepSources consumer never reads.
func (m *mode) nextStop(tau, tEnd float64) (next float64, lNew int) {
	next, lNew = tEnd, m.lmax
	if m.grow {
		if tg := m.nextGrowTau(); tg < next {
			next = max(tg, tau)
			lNew = min(m.neededLMax(next)+max(8, m.lmax/3), m.p.LMax)
			if lNew <= m.lmax {
				lNew = m.lmax + 1 // cannot happen: growth times precede need
			}
		}
	}
	if tau < m.streamAt && m.streamAt < next {
		next, lNew = m.streamAt, streamLMax
	}
	if tau < m.shrinkAt && m.shrinkAt < next {
		next, lNew = m.shrinkAt, min(m.lmax, shrinkLMax)
	}
	if m.srcCap.h > 0 {
		capped := func(h float64) float64 {
			if m.srcCap.base > 0 && m.srcCap.base < h {
				return m.srcCap.base
			}
			return h
		}
		switch {
		case tau < m.srcCap.lo:
			m.ad.MaxStep = m.srcCap.base
			if m.srcCap.lo < next {
				next, lNew = m.srcCap.lo, m.lmax
			}
		case tau < m.srcCap.hi:
			m.ad.MaxStep = capped(m.srcCap.h)
			if m.srcCap.hi < next {
				next, lNew = m.srcCap.hi, m.lmax
			}
		default:
			m.ad.MaxStep = capped((m.p.TauEnd - m.srcCap.hi) * srcCapLate)
		}
	}
	if lNew < m.lmax {
		m.grow = false
	}
	return next, lNew
}

// neededLMax is the smallest safe active cutoff at conformal time tau.
func (m *mode) neededLMax(tau float64) int {
	n := int(growRate*m.k*tau) + growBuffer
	if n > m.p.LMax {
		n = m.p.LMax
	}
	return n
}

// initialLMax picks the starting hierarchy size of a growing run.
func (m *mode) initialLMax(tau float64) int {
	l := m.neededLMax(tau)
	if l < growFloor {
		l = growFloor
	}
	if l > m.p.LMax {
		l = m.p.LMax
	}
	return l
}

// nextGrowTau returns the conformal time at which the active cutoff stops
// being safe (+Inf effectively once growth has completed).
func (m *mode) nextGrowTau() float64 {
	if m.lmax >= m.p.LMax {
		m.grow = false
		return math.Inf(1)
	}
	return float64(m.lmax-growBuffer+1) / (growRate * m.k)
}

// maxNvar is the state-vector size the mode would have at the full
// hierarchy cutoff p.LMax — the capacity hint that lets the arena reserve
// one buffer covering every future growth event.
func (m *mode) maxNvar() int {
	return m.nvar + 3*(m.p.LMax-m.lmax)
}

// streaming reports whether the run has entered the streaming regime.
func (m *mode) streaming() bool { return m.lmax < 0 }

// planLateStops schedules the late-time re-layouts of a fast
// source-recording run: the shrink once radiation is negligible (see
// Model.radShrinkTau) and the visibility window is over, and in the
// conformal Newtonian gauge the streaming switch once, on top of that,
// k*tau >= streamKTau for kmin, the smallest wavenumber integrated with
// this mode. A brute run (no KeepSources) keeps its hierarchies: its
// product IS the final-time moments.
func (m *mode) planLateStops(kmin float64) {
	if !m.p.FastEvolve || !m.p.KeepSources || m.p.noGrowLMax {
		return
	}
	t := m.radShrinkTau()
	if m.srcCap.h > 0 && t < m.srcCap.hi {
		t = m.srcCap.hi
	}
	if t >= m.p.TauEnd {
		return
	}
	m.shrinkAt = t
	if m.p.Gauge != ConformalNewtonian || m.p.noStream {
		return
	}
	if ts := max(t, streamKTau/kmin); ts < m.p.TauEnd {
		m.streamAt = ts
	}
}

// layout assigns state-vector indices for the active cutoff m.lmax.
func (m *mode) layout() {
	if m.BG.P.NNuMassive > 0 {
		m.nq = len(m.BG.Q)
		m.lnu = m.p.lmaxNu
	}
	L := m.lmax + 1
	i := 0
	alloc := func(n int) int { j := i; i += n; return j }
	m.ia = alloc(1)
	m.idc = alloc(1)
	if m.p.Gauge == ConformalNewtonian {
		m.itc = alloc(1)
	} else {
		m.itc = -1
	}
	m.idb = alloc(1)
	m.itb = alloc(1)
	if m.p.Gauge == ConformalNewtonian {
		m.iphi = alloc(1)
		m.ieta, m.ih, m.ihd = -1, -1, -1
	} else {
		m.iphi = -1
		m.ieta = alloc(1)
		m.ih = alloc(1)
		m.ihd = alloc(1)
	}
	m.ifg = alloc(L)
	m.igg = alloc(L)
	m.ifn = alloc(L)
	m.ipsn = alloc(m.nq * (m.lnu + 1))
	m.nvar = i

	nr := m.lmax + 1
	if m.lnu+1 > nr {
		nr = m.lnu + 1
	}
	if len(m.sc.rA) < nr {
		// The ratios depend only on l: the arena keeps the grown tables, so
		// every later mode (and growth event) reuses them.
		m.sc.rA = make([]float64, nr)
		m.sc.rB = make([]float64, nr)
		for l := 0; l < nr; l++ {
			fl := float64(l)
			m.sc.rA[l] = fl / (2.0*fl + 1.0)
			m.sc.rB[l] = (fl + 1.0) / (2.0*fl + 1.0)
		}
	}
	m.rA, m.rB = m.sc.rA, m.sc.rB
}

// startTime picks the initial conformal time: superhorizon (k tau small),
// deep enough in the radiation era, inside the thermodynamic table, and —
// when massive neutrinos are present — while they are still relativistic.
func (m *mode) startTime() float64 {
	aCap := 1e-5
	if m.BG.P.NNuMassive > 0 {
		if amax := 1e-3 / m.BG.MassQ; amax < aCap {
			aCap = amax
		}
	}
	tau := m.p.kTauStart / m.k
	if tCap := m.BG.Tau(aCap); tau > tCap {
		tau = tCap
	}
	if tMin := m.BG.Tau(2e-8); tau < tMin {
		tau = tMin
	}
	return tau
}

// rnuFraction returns R_nu = rho_nu/(rho_gamma + rho_nu) at scale factor a
// counting all (still relativistic) neutrinos.
func (m *mode) rnuFraction(a float64) float64 {
	g := &m.scratch
	m.BG.Eval(a, g)
	return (g.Nu + g.HNu) / (g.G + g.Nu + g.HNu)
}

// initialConditions sets the adiabatic growing mode of MB95 eq. (96) with
// normalization C = 1. The conformal Newtonian state is obtained by an
// exact gauge transformation of the synchronous series using the true
// background expansion rate: the transformation absorbs the small matter
// contamination at the start time, which a pure radiation-era Newtonian
// series (MB95 eq. 98) would miss; unlike the synchronous variables, the
// Newtonian potential is O(1) on super-horizon scales, so such errors
// would persist instead of decaying.
func (m *mode) initialConditions(tau float64, y []float64) {
	a := m.BG.AofTau(tau)
	rnu := m.rnuFraction(a)
	k, kt := m.k, m.k*tau
	kt2 := kt * kt
	const c = 1.0

	y[m.ia] = a

	// Synchronous adiabatic series (MB95 eq. 96).
	h := c * kt2
	eta := 2.0*c - c*(5.0+4.0*rnu)/(6.0*(15.0+4.0*rnu))*kt2
	hdot := 2.0 * c * k * kt
	etadot := -c * (5.0 + 4.0*rnu) / (3.0 * (15.0 + 4.0*rnu)) * m.k2 * tau
	deltaG := -2.0 / 3.0 * c * kt2
	deltaNu := deltaG
	deltaC := 0.75 * deltaG
	deltaB := deltaC
	thetaG := -c / 18.0 * kt2 * kt * k
	thetaB := thetaG
	thetaC := 0.0
	thetaNu := thetaG * (23.0 + 4.0*rnu) / (15.0 + 4.0*rnu)
	sigmaNu := 4.0 * c / (3.0 * (15.0 + 4.0*rnu)) * kt2

	if m.p.Gauge == Synchronous {
		y[m.ieta] = eta
		y[m.ih] = h
		y[m.ihd] = hdot
	} else {
		// Gauge shift alpha = (h-dot + 6 eta-dot)/(2 k^2); transform with
		// the tabulated (not pure-radiation) conformal Hubble rate.
		hc := m.BG.HConf(a)
		alpha := (hdot + 6.0*etadot) / (2.0 * m.k2)
		y[m.iphi] = eta - hc*alpha
		deltaG -= 4.0 * hc * alpha
		deltaNu -= 4.0 * hc * alpha
		deltaC -= 3.0 * hc * alpha
		deltaB -= 3.0 * hc * alpha
		thetaG += m.k2 * alpha
		thetaB += m.k2 * alpha
		thetaNu += m.k2 * alpha
		thetaC += m.k2 * alpha
		y[m.itc] = thetaC
	}

	y[m.idc] = deltaC
	y[m.idb] = deltaB
	y[m.itb] = thetaB

	// Photons: monopole and dipole only (higher moments are Thomson
	// suppressed; polarization vanishes in tight coupling).
	y[m.ifg] = deltaG
	y[m.ifg+1] = 4.0 / (3.0 * k) * thetaG

	// Massless neutrinos.
	y[m.ifn] = deltaNu
	y[m.ifn+1] = 4.0 / (3.0 * k) * thetaNu
	y[m.ifn+2] = 2.0 * sigmaNu

	// Massive neutrinos: Psi_l from the fluid moments via dln f0/dln q.
	for iq := 0; iq < m.nq; iq++ {
		q := m.BG.Q[iq]
		df := m.BG.DlnF0DlnQ[iq]
		am := a * m.BG.MassQ
		eps := math.Sqrt(q*q + am*am)
		base := m.ipsn + iq*(m.lnu+1)
		y[base] = -0.25 * deltaNu * df
		y[base+1] = -eps / (3.0 * q * k) * thetaNu * df
		y[base+2] = -0.5 * sigmaNu * df
	}
}

// tcaHolds reports whether the tight-coupling criteria hold at a — with
// slip set, the slip regime's: the same on the slip's own rate (1+R) kd.
func (m *mode) tcaHolds(a float64, slip bool) bool {
	kd := m.TH.Opacity(a)
	if slip {
		g := &m.scratch
		m.BG.Eval(a, g)
		kd *= 1.0 + 4.0/3.0*g.G/g.B
	}
	if kd < m.p.tcaFactor*m.k {
		return false
	}
	if kd < m.p.tcaFactor*m.BG.HConf(a) {
		return false
	}
	// Safety: stay well before last scattering.
	return m.TH.OpticalDepth(a) > 20.0
}

// findTCASwitch bisects for the conformal time at which tight coupling
// (slip set: the slip regime's criterion) first fails.
func (m *mode) findTCASwitch(tauStart, tauEnd float64, slip bool) float64 {
	lo, hi := tauStart, tauEnd
	if m.tcaHolds(m.BG.AofTau(hi), slip) {
		return hi // never fails (cannot happen in practice: opacity dies)
	}
	for iter := 0; iter < 200 && hi-lo > 1e-10*hi; iter++ {
		mid := 0.5 * (lo + hi)
		if m.tcaHolds(m.BG.AofTau(mid), slip) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// releaseTightCoupling performs the hand-off state surgery: the quadrupole
// and polarization moments take their first-order tight-coupling values.
func (m *mode) releaseTightCoupling(tau float64, y []float64) {
	a := y[m.ia]
	kd := m.TH.Opacity(a)
	if kd <= 0 {
		return
	}
	tc := 1.0 / kd
	thetaG := 0.75 * m.k * y[m.ifg+1]
	shearSource := thetaG
	if m.p.Gauge == Synchronous {
		// s = (h-dot + 6 eta-dot)/2 enters the l=2 source in this gauge.
		etaDot := m.etaDotAt(tau, y)
		shearSource += 0.5*y[m.ihd] + 3.0*etaDot
	}
	fg2 := 32.0 / 45.0 * tc * shearSource
	y[m.ifg+2] = fg2
	y[m.igg] = 1.25 * fg2
	y[m.igg+2] = 0.25 * fg2
}

// slipEnd returns where a slip regime entered at tau, the tight-coupling
// release, ends; a time not after tau means the run takes none.
func (m *mode) slipEnd(tau, tauEnd float64) float64 {
	if m.tab == nil || m.p.noSlip {
		return tau
	}
	return min(m.findTCASwitch(tau, tauEnd, true), m.TH.TauRec()-SourceWindowBefore)
}

// seatSlip is the slip regime's hand-off state surgery, entering it (on)
// and leaving it: the state's slip theta_g - theta_b takes the quasi-static
// value slipX/kd of the regime's right-hand side on y (evaluated into the
// scratch dy) at fixed R theta_g + theta_b, the pair's momentum. On entry
// that replaces the initial slip, which the first regime's equations froze,
// with the true baryon velocity the expansion presumes; on exit the
// released equations start from the exchange the regime last used.
func (m *mode) seatSlip(on bool, tau float64, y, dy []float64) {
	m.slip = true
	m.rhs(tau, y, dy)
	m.slip = on
	r := 4.0 / 3.0 * m.scratch.G / m.scratch.B
	c := 4.0 / (3.0 * m.k) // F_1 per unit theta_g
	d := m.slipX / m.tt.Kd
	thetaG := (r*y[m.ifg+1]/c + y[m.itb] + d) / (1.0 + r)
	y[m.ifg+1] = c * thetaG
	y[m.itb] = thetaG - d
}

// etaDotAt evaluates eta-dot = g_theta/(2 k^2) from the current state.
func (m *mode) etaDotAt(tau float64, y []float64) float64 {
	var s sums
	m.gatherSums(tau, y, &s)
	return 0.5 * s.gtheta / m.k2
}

// pack fills the Result from the final state.
func (m *mode) pack(tau float64, y []float64, res *Result) {
	L := m.p.LMax + 1
	res.Tau = tau
	res.A = y[m.ia]
	res.ThetaL = make([]float64, L)
	res.ThetaPL = make([]float64, L)
	// A growing run may finish with m.lmax < p.LMax when k tau0 never
	// reached the requested cutoff; the moments beyond the active cutoff
	// are exactly the ones with no power, and stay zero.
	for l := 0; l <= m.lmax; l++ {
		res.ThetaL[l] = 0.25 * y[m.ifg+l]
		res.ThetaPL[l] = 0.25 * y[m.igg+l]
	}
	var s sums
	m.gatherSums(tau, y, &s)
	if m.streaming() {
		res.ThetaL[0] = 0.25 * s.deltaG // the streaming closure, -phi
	}
	res.DeltaC = y[m.idc]
	res.DeltaB = y[m.idb]
	res.DeltaG = s.deltaG
	res.DeltaNu = s.deltaNu
	res.ThetaB = y[m.itb]
	if m.p.Gauge == ConformalNewtonian {
		res.ThetaC = y[m.itc]
		res.Phi = y[m.iphi]
		res.Psi = y[m.iphi] - 1.5*s.gshear/m.k2
	} else {
		res.Eta = y[m.ieta]
		res.HDot = y[m.ihd]
	}
	if m.nq > 0 {
		// Massive neutrino density contrast from the Psi_0 integral.
		var num, den float64
		am := y[m.ia] * m.BG.MassQ
		for iq := 0; iq < m.nq; iq++ {
			q := m.BG.Q[iq]
			eps := math.Sqrt(q*q + am*am)
			num += m.BG.W[iq] * eps * y[m.ipsn+iq*(m.lnu+1)]
			den += m.BG.W[iq] * eps
		}
		if den != 0 {
			res.DeltaHNu = num / den
		}
	}
}
