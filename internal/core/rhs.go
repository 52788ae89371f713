package core

import "math"

// sums collects the perturbed stress-energy sources of the Einstein
// equations, all in 8 pi G a^2 units (Mpc^-2):
//
//	gdrho  = 8 pi G a^2 delta rho
//	gtheta = 8 pi G a^2 (rho+P) theta
//	gshear = 8 pi G a^2 (rho+P) sigma
//	gdp3   = 3 * 8 pi G a^2 delta P
type sums struct {
	a      float64
	hconf  float64
	kd     float64 // Thomson opacity
	cs2    float64 // baryon sound speed squared
	gdrho  float64
	gtheta float64
	gshear float64
	gdp3   float64

	deltaG, thetaG, sigmaG float64
	deltaNu, thetaNu       float64
}

// gatherSums evaluates background quantities and the stress-energy sums for
// the current state. The fast engine resolves the background and
// thermodynamics through the model's flattened tables (one log + one fused
// direct-indexed interpolation); the reference path keeps the exact spline
// lookups.
func (m *mode) gatherSums(tau float64, y []float64, s *sums) {
	g := &m.scratch
	a := y[m.ia]
	if c := m.bgCache; c != nil && c.a == a {
		// Lockstep batch: the scale factor obeys the same k-independent
		// ODE in every member, so the members' a trajectories are bitwise
		// identical and one background/thermodynamics lookup per
		// right-hand-side call serves the whole batch. The equality guard
		// makes a stale cache merely a miss, never an error.
		*g = c.g
		m.tt = c.th
	} else if m.tab != nil {
		m.tab.Eval(a, g, &m.tt)
	} else {
		m.BG.Eval(a, g)
		m.tt.Kd, m.tt.Cs2 = m.TH.Opacity(a), m.TH.Cs2(a)
	}
	s.kd, s.cs2 = m.tt.Kd, m.tt.Cs2
	s.a = a
	s.hconf = g.HConf

	k := m.k
	dc, db := y[m.idc], y[m.idb]
	tb := y[m.itb]
	var tc float64
	if m.itc >= 0 {
		tc = y[m.itc]
	}

	var sigmaNu float64
	if m.streaming() {
		// No radiation state: the free-streaming monopoles sit at
		// Theta_0 + psi = 0 and the higher moments average out.
		s.deltaG, s.deltaNu = -4.0*y[m.iphi], -4.0*y[m.iphi]
		s.thetaG, s.sigmaG, s.thetaNu = 0, 0, 0
	} else {
		s.deltaG = y[m.ifg]
		s.thetaG = 0.75 * k * y[m.ifg+1]
		if m.tca {
			// Algebraic first-order tight-coupling shear. The synchronous
			// metric contribution is added by the caller (it needs eta-dot,
			// which itself needs gtheta — the shear term there is O(tau_c)
			// and may be evaluated with the photon velocity alone).
			s.sigmaG = 16.0 / 45.0 / s.kd * s.thetaG
		} else {
			s.sigmaG = 0.5 * y[m.ifg+2]
		}
		s.deltaNu = y[m.ifn]
		s.thetaNu = 0.75 * k * y[m.ifn+1]
		sigmaNu = 0.5 * y[m.ifn+2]
	}

	s.gdrho = g.C*dc + g.B*db + g.G*s.deltaG + g.Nu*s.deltaNu
	s.gtheta = g.C*tc + g.B*tb + 4.0/3.0*(g.G*s.thetaG+g.Nu*s.thetaNu)
	s.gshear = 4.0 / 3.0 * (g.G*s.sigmaG + g.Nu*sigmaNu)
	s.gdp3 = g.G*s.deltaG + g.Nu*s.deltaNu + 3.0*s.cs2*g.B*db

	if m.nq > 0 {
		am := a * m.BG.MassQ
		var r0, r1, r2, rp float64
		for iq := 0; iq < m.nq; iq++ {
			q := m.BG.Q[iq]
			w := m.BG.W[iq]
			eps := math.Sqrt(q*q + am*am)
			base := m.ipsn + iq*(m.lnu+1)
			r0 += w * eps * y[base]
			r1 += w * q * y[base+1]
			r2 += w * q * q / eps * y[base+2]
			rp += w * q * q / eps * y[base]
		}
		// Normalize against the massless integral Int q^3 f0 dq so the
		// prefactor is the single-species radiation coefficient.
		pref := m.BG.Grhor1 * float64(m.BG.P.NNuMassive) / (a * a) / m.BG.Q3Norm
		s.gdrho += pref * r0
		s.gtheta += pref * k * r1
		s.gshear += pref * 2.0 / 3.0 * r2
		s.gdp3 += pref * rp
	}
}

// rhs is the complete right-hand side of the coupled system; it dispatches
// on gauge and the tight-coupling regime.
func (m *mode) rhs(tau float64, y, dy []float64) {
	var s sums
	m.gatherSums(tau, y, &s)
	k, k2 := m.k, m.k2
	a, hc, kd := s.a, s.hconf, s.kd
	lmax := m.lmax

	dy[m.ia] = a * hc

	// Metric sources.
	var (
		psi, phiDot float64 // conformal Newtonian
		hdot, eDot  float64 // synchronous
		src0        float64 // radiation monopole source: 4 phi-dot | -(2/3) h-dot
		src1        float64 // radiation dipole source: (4/3) k psi | 0
		src2        float64 // l=2 source: 0 | (8/15) s2
	)
	if m.p.Gauge == ConformalNewtonian {
		phi := y[m.iphi]
		psi = phi - 1.5*s.gshear/k2
		phiDot = 0.5*s.gtheta/k2 - hc*psi
		dy[m.iphi] = phiDot
		src0 = 4.0 * phiDot
		src1 = 4.0 / 3.0 * k * psi
		src2 = 0
	} else {
		eta := y[m.ieta]
		hdot = y[m.ihd]
		eDot = 0.5 * s.gtheta / k2
		dy[m.ieta] = eDot
		dy[m.ih] = hdot
		// MB95 (21c): h-ddot + 2 aH h-dot - 2 k^2 eta = -8 pi G a^2 (3 dP).
		dy[m.ihd] = -2.0*hc*hdot + 2.0*k2*eta - s.gdp3
		s2 := 0.5*hdot + 3.0*eDot
		src0 = -2.0 / 3.0 * hdot
		src1 = 0
		src2 = 8.0 / 15.0 * s2
		if m.tca {
			// Add the metric part of the tight-coupling shear.
			s.sigmaG += 16.0 / 45.0 / kd * s2
		}
	}

	// Cold dark matter.
	if m.p.Gauge == ConformalNewtonian {
		tc := y[m.itc]
		dy[m.idc] = -tc + 3.0*phiDot
		dy[m.itc] = -hc*tc + k2*psi
	} else {
		dy[m.idc] = -0.5 * hdot
	}

	// Baryons and the photon monopole/dipole.
	db, tb := y[m.idb], y[m.itb]
	if m.p.Gauge == ConformalNewtonian {
		dy[m.idb] = -tb + 3.0*phiDot
	} else {
		dy[m.idb] = -tb - 0.5*hdot
	}

	// Photon-baryon momentum exchange. m.scratch still holds the
	// background densities filled by gatherSums.
	gb := &m.scratch
	r := 4.0 / 3.0 * gb.G / gb.B
	if m.streaming() {
		// Conformal Newtonian, no radiation state: the baryons keep the
		// residual Thomson drag toward theta_g = 0, and only the massive
		// neutrinos are left of the Boltzmann hierarchies.
		dy[m.itb] = -hc*tb + s.cs2*k2*db + k2*psi - r*kd*tb
		m.massiveNuRHS(tau, a, y, dy, phiDot, psi, 0, 0)
		return
	}
	dy[m.ifg] = -k*y[m.ifg+1] + src0
	photonAccel := k2 * (0.25*s.deltaG - s.sigmaG)
	var kpsi float64
	if m.p.Gauge == ConformalNewtonian {
		kpsi = k2 * psi
	}

	if m.tca {
		// First-order tight coupling: eliminate the stiff Thomson terms.
		// Slip N = k^2(delta_g/4 - sigma_g) + aH theta_b - cs^2 k^2 delta_b
		// with theta_g - theta_b = tau_c N/(1+R).
		n := photonAccel + hc*tb - s.cs2*k2*db
		dy[m.itb] = -hc*tb + s.cs2*k2*db + kpsi + r/(1.0+r)*n
		thetaGDot := photonAccel + kpsi - n/(1.0+r)
		dy[m.ifg+1] = 4.0 / (3.0 * k) * thetaGDot
		// Higher photon moments and polarization are algebraically slaved;
		// hold their stored values frozen (they remain ~0 until release).
		clear(dy[m.ifg+2 : m.ifg+lmax+1])
		clear(dy[m.igg : m.igg+lmax+1])
	} else {
		// The free-streaming hierarchies run on subslice views with the
		// l/(2l+1) ratios precomputed (see mode.rA/rB): per-moment index
		// arithmetic and divisions stay out of the hottest loops, whose
		// l >= 3 recurrences are one kernel (streamDamped, stream). They
		// run at ordinary arithmetic speed because the integrator flushes
		// the decaying leading edge to exact 0 (ode.Adaptive) before it can
		// reach the subnormal range.
		fg := y[m.ifg : m.ifg+lmax+1]
		dfg := dy[m.ifg : m.ifg+lmax+1]
		gg := y[m.igg : m.igg+lmax+1]
		dgg := dy[m.igg : m.igg+lmax+1]
		rA, rB := m.rA, m.rB
		trunc := (float64(lmax) + 1.0) / tau

		dy[m.itb] = -hc*tb + s.cs2*k2*db + kpsi + r*kd*(s.thetaG-tb)
		thetaGDot := photonAccel + kpsi + kd*(tb-s.thetaG)
		dfg[1] = 4.0 / (3.0 * k) * thetaGDot

		pi := fg[2] + gg[0] + gg[2]
		// Temperature quadrupole and higher. MB95 eq. (63): the Thomson
		// term is -kd [ (9/10) F_2 - (1/10)(G_0 + G_2) ], equivalently
		// -kd (F_2 - Pi/10) with Pi = F_2 + G_0 + G_2.
		dfg[2] = k/5.0*(2.0*fg[1]-3.0*fg[3]) + src2 - kd*(fg[2]-0.1*pi)
		streamDamped(dfg, fg, rA, rB, k, kd)
		// Free-streaming truncation (MB95 eq. 65).
		dfg[lmax] = k*fg[lmax-1] - trunc*fg[lmax] - kd*fg[lmax]

		// Polarization hierarchy.
		dgg[0] = -k*gg[1] + kd*(0.5*pi-gg[0])
		dgg[1] = k/3.0*(gg[0]-2.0*gg[2]) - kd*gg[1]
		if lmax >= 3 {
			dgg[2] = k/5.0*(2.0*gg[1]-3.0*gg[3]) + kd*(0.1*pi-gg[2])
		} else {
			dgg[2] = k/5.0*(2.0*gg[1]) + kd*(0.1*pi-gg[2])
		}
		streamDamped(dgg, gg, rA, rB, k, kd)
		dgg[lmax] = k*gg[lmax-1] - trunc*gg[lmax] - kd*gg[lmax]
		if m.slip {
			m.slipRHS(&s, kpsi, y, dy)
		}
	}

	// Massless neutrinos.
	fn := y[m.ifn : m.ifn+lmax+1]
	dfn := dy[m.ifn : m.ifn+lmax+1]
	dfn[0] = -k*fn[1] + src0
	dfn[1] = k/3.0*(fn[0]-2.0*fn[2]) + src1
	if lmax >= 3 {
		dfn[2] = k/5.0*(2.0*fn[1]-3.0*fn[3]) + src2
	} else {
		dfn[2] = k / 5.0 * (2.0 * fn[1])
	}
	stream(dfn, fn, m.rA, m.rB, k)
	dfn[lmax] = k*fn[lmax-1] - (float64(lmax)+1.0)/tau*fn[lmax]

	m.massiveNuRHS(tau, a, y, dy, phiDot, psi, hdot, eDot)
}

// slipRHS rewrites the two velocity equations of a released right-hand
// side for the slip regime (see the constants block in mode.go): the
// momentum exchange X = kd (theta_g - theta_b), kept in slipX, is slaved to
// the rest of the state. The slip D = theta_g - theta_b obeys D' = N -
// lambda D, lambda = (1+R) kd, with the same N in both gauges (the metric
// terms of the two equations cancel), and relaxes onto D = N/lambda -
// (N/lambda)'/lambda + O(lambda^-3): the tight-coupling expansion one order
// past the first regime's, MB95 eq. (74-75). N' takes delta_g', F_2' and
// delta_b' from dy as assembled, theta_b' from the leading order, R' =
// -aH R, and the slopes of kd, cs2 and aH from the table lookup.
func (m *mode) slipRHS(s *sums, kpsi float64, y, dy []float64) {
	k2, hc, th := m.k2, s.hconf, &m.tt
	tb, db := y[m.itb], y[m.idb]
	r := 4.0 / 3.0 * m.scratch.G / m.scratch.B
	photonAccel := k2 * (0.25*s.deltaG - s.sigmaG)
	drag := -hc*tb + s.cs2*k2*db // theta_b' without the metric and the exchange
	n := photonAccel - drag
	nDot := k2*(0.25*dy[m.ifg]-0.5*dy[m.ifg+2]) + hc*(th.DHConf*tb+drag+kpsi+r/(1.0+r)*n) -
		k2*(hc*th.DCs2*db+s.cs2*dy[m.idb])
	lambdaDot := hc * (th.DlnKd - r/(1.0+r)) // lambda'/lambda
	m.slipX = (n - (nDot-n*lambdaDot)/((1.0+r)*s.kd)) / (1.0 + r)
	dy[m.itb] = drag + kpsi + r*m.slipX
	dy[m.ifg+1] = 4.0 / (3.0 * m.k) * (photonAccel + kpsi - m.slipX)
}

// massiveNuRHS fills the massive-neutrino block of the right-hand side
// (full momentum dependence) from the metric sources of the run's gauge:
// (phiDot, psi) conformal Newtonian, (hdot, eDot) synchronous.
func (m *mode) massiveNuRHS(tau, a float64, y, dy []float64, phiDot, psi, hdot, eDot float64) {
	k := m.k
	am := a * m.BG.MassQ
	rA, rB := m.rA, m.rB
	for iq := 0; iq < m.nq; iq++ {
		q := m.BG.Q[iq]
		df := m.BG.DlnF0DlnQ[iq]
		eps := math.Sqrt(q*q + am*am)
		qke := q * k / eps
		base := m.ipsn + iq*(m.lnu+1)
		ps := y[base : base+m.lnu+1]
		dps := dy[base : base+m.lnu+1]
		var s0, s1, s2nu float64
		if m.p.Gauge == ConformalNewtonian {
			s0 = -phiDot * df
			s1 = -eps * k / (3.0 * q) * psi * df
		} else {
			s0 = hdot / 6.0 * df
			s2nu = -2.0 / 15.0 * (0.5*hdot + 3.0*eDot) * df
		}
		dps[0] = -qke*ps[1] + s0
		dps[1] = qke/3.0*(ps[0]-2.0*ps[2]) + s1
		if m.lnu >= 3 {
			dps[2] = qke/5.0*(2.0*ps[1]-3.0*ps[3]) + s2nu
		} else {
			dps[2] = qke/5.0*(2.0*ps[1]) + s2nu
		}
		stream(dps, ps, rA, rB, qke)
		dps[m.lnu] = qke*ps[m.lnu-1] - (float64(m.lnu)+1.0)/tau*ps[m.lnu]
	}
}

// streamDampedGo sets d[l] = k*(rA[l]*f[l-1] - rB[l]*f[l+1]) - kd*f[l] for
// 3 <= l < len(f)-1: the moments of a photon hierarchy between its sourced
// low ones and its truncated last one.
func streamDampedGo(d, f, rA, rB []float64, k, kd float64) {
	for l := 3; l < len(f)-1; l++ {
		d[l] = k*(rA[l]*f[l-1]-rB[l]*f[l+1]) - kd*f[l]
	}
}

// streamGo is streamDampedGo for a collisionless hierarchy. It has no kd
// term at all, rather than kd = 0: -0*f[l] would turn a -0 result into +0
// and 0*Inf into NaN.
func streamGo(d, f, rA, rB []float64, k float64) {
	for l := 3; l < len(f)-1; l++ {
		d[l] = k * (rA[l]*f[l-1] - rB[l]*f[l+1])
	}
}

// constraintResidual evaluates the unused Einstein equation as a relative
// error — the accuracy monitor of the original LINGER code.
func (m *mode) constraintResidual(tau float64, y []float64) float64 {
	var s sums
	m.gatherSums(tau, y, &s)
	return m.residualFrom(y, &s)
}

// residualFrom is constraintResidual on sums already gathered for this
// state, so callers that need both the sums and the residual (record) pay
// one gatherSums instead of two.
func (m *mode) residualFrom(y []float64, s *sums) float64 {
	k2 := m.k2
	if m.p.Gauge == ConformalNewtonian {
		phi := y[m.iphi]
		psi := phi - 1.5*s.gshear/k2
		phiDot := 0.5*s.gtheta/k2 - s.hconf*psi
		lhs := k2*phi + 3.0*s.hconf*(phiDot+s.hconf*psi)
		rhs := -0.5 * s.gdrho
		scale := math.Max(math.Abs(k2*phi), math.Max(math.Abs(rhs), 3.0*s.hconf*s.hconf*math.Abs(psi)))
		if scale == 0 {
			return 0
		}
		return math.Abs(lhs-rhs) / scale
	}
	eta := y[m.ieta]
	hdot := y[m.ihd]
	lhs := k2*eta - 0.5*s.hconf*hdot
	rhs := -0.5 * s.gdrho
	scale := math.Max(math.Abs(k2*eta), math.Max(math.Abs(rhs), 0.5*s.hconf*math.Abs(hdot)))
	if scale == 0 {
		return 0
	}
	return math.Abs(lhs-rhs) / scale
}

// monitor tracks the worst constraint violation.
func (m *mode) monitor(tau float64, y []float64) {
	if r := m.constraintResidual(tau, y); r > m.maxResidual {
		m.maxResidual = r
	}
}

// record stores a line-of-sight source sample (and monitors constraints).
// The sums are gathered once and shared between the constraint residual
// and the sample fields.
func (m *mode) record(tau float64, y []float64) {
	var s sums
	m.gatherSums(tau, y, &s)
	resid := m.residualFrom(y, &s)
	if resid > m.maxResidual {
		m.maxResidual = resid
	}
	kappa := 0.0
	if c := m.bgCache; c != nil && c.kapOK && c.a == s.a {
		kappa = c.kappa
	} else if m.tab != nil {
		kappa = m.tab.OpticalDepth(s.a)
	} else {
		kappa = m.TH.OpticalDepth(s.a)
	}
	smp := Sample{
		Residual: resid,
		Tau:      tau,
		A:        s.a,
		Theta0:   0.25 * s.deltaG,
		VB:       y[m.itb] / m.k,
		Kdot:     s.kd,
		Kappa:    kappa,
		DeltaC:   y[m.idc],
		DeltaB:   y[m.idb],
	}
	if m.tca {
		smp.Pi = 2.5 * 2.0 * s.sigmaG // Pi = (5/2) F_2 = 5 sigma_g
	} else if !m.streaming() {
		smp.Pi = y[m.ifg+2] + y[m.igg] + y[m.igg+2]
	}
	if m.p.Gauge == ConformalNewtonian {
		phi := y[m.iphi]
		psi := phi - 1.5*s.gshear/m.k2
		smp.Phi = phi
		smp.Psi = psi
		smp.PhiDot = 0.5*s.gtheta/m.k2 - s.hconf*psi
	} else {
		smp.Eta = y[m.ieta]
		smp.HDot = y[m.ihd]
		smp.EtaDot = 0.5 * s.gtheta / m.k2
		smp.Alpha = (smp.HDot + 6.0*smp.EtaDot) / (2.0 * m.k2)
	}
	m.sources = append(m.sources, smp)
}
