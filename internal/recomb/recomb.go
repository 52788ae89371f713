// Package recomb computes the ionization history of the universe: Saha
// equilibrium for hydrogen and both helium stages at early times, matched
// onto the Peebles effective three-level atom for hydrogen through
// recombination, together with the baryon temperature evolution including
// Compton coupling to the radiation. The paper lists "accurate treatments
// of hydrogen and helium recombination" and the "decoupling of photons and
// baryons" among the physics modeled; this package is that substrate.
//
// All microphysics here is evaluated in SI units and the results are
// returned as dimensionless fractions and kelvin on a logarithmic grid in
// the scale factor.
//
// Every new cosmology pays for Compute once, serially, so each quantity is
// evaluated where it changes and nowhere else. Per grid point: the Saha
// prefactor (2 pi m_e k T / h^2)^(3/2) at T_gamma, shared by H, He I and
// He II (saha; skipped below ~240 K, where every Saha factor is 0), and the
// baryon temperature step. Per Peebles grid step, where T_b is fixed:
// alpha_B, beta and the Ly-alpha Boltzmann factor (peeblesRates). Per
// sub-step (eight to a grid step): the midpoint
// background, the helium Saha ratios and, only if T_b <= 0, the Peebles
// rates at T_gamma instead. Per probe (three to a sub-step, the rate and
// its Jacobian): n_1s, the Ly-alpha escape factor C and the net rate
// (dxpDlnA). thermo's TestGoldenHistoryBits pins the resulting History, and
// the thermal tables built from it, bit for bit.
package recomb

import (
	"fmt"
	"math"

	"plinger/internal/constants"
	"plinger/internal/cosmology"
)

// Ionization energies in eV.
const (
	chiH    = 13.605698
	chiHeI  = 24.587387
	chiHeII = 54.417760
)

// Atomic constants for the Peebles three-level atom.
const (
	lambda2s1s   = 8.2245809   // 2s->1s two-photon rate, s^-1
	lambdaLyAlph = 121.5682e-9 // Lyman-alpha wavelength, m
	e2sEV        = chiH / 4.0  // binding energy of n=2, eV
	eLyAlphaEV   = chiH * 0.75 // Ly-alpha transition energy, eV
	alphaFudge   = 1.14        // case-B fudge factor (RECFAST convention)
	sahaSwitchXp = 0.985       // hand-off from Saha to the Peebles ODE
)

// History tabulates the ionization state on a grid uniform in ln a.
type History struct {
	// LnA is the grid in ln(a), increasing.
	LnA []float64
	// Xe is n_e/n_H (can exceed 1 thanks to helium).
	Xe []float64
	// Xp is the ionized hydrogen fraction n_p/n_H.
	Xp []float64
	// TBaryon is the baryon (matter) temperature in kelvin.
	TBaryon []float64
	// TGamma is the photon temperature in kelvin.
	TGamma []float64

	// FHe is the helium-to-hydrogen number ratio Y/(4(1-Y)).
	FHe float64
	// NH0 is the comoving hydrogen number density, Mpc^-3.
	NH0 float64
}

// Options tunes the integration grid.
type Options struct {
	// AStart is the initial scale factor (default 1e-8).
	AStart float64
	// N is the number of grid points (default 6000).
	N int
}

// Compute integrates the ionization history for the given background.
func Compute(bg *cosmology.Background, opt Options) (*History, error) {
	if opt.AStart <= 0 {
		opt.AStart = 1e-8
	}
	if opt.N <= 1 {
		opt.N = 6000
	}
	if opt.AStart >= 1 {
		return nil, fmt.Errorf("recomb: AStart = %g must be < 1", opt.AStart)
	}
	p := bg.P
	h := &History{
		LnA:     make([]float64, opt.N),
		Xe:      make([]float64, opt.N),
		Xp:      make([]float64, opt.N),
		TBaryon: make([]float64, opt.N),
		TGamma:  make([]float64, opt.N),
		FHe:     p.YHe / (4.0 * (1.0 - p.YHe)),
		NH0:     constants.NHydrogenToday(p.OmegaB*p.H*p.H, p.YHe),
	}
	lnA0 := math.Log(opt.AStart)
	dln := -lnA0 / float64(opt.N-1)

	// nH in m^-3 at scale factor a.
	nH0SI := h.NH0 / (constants.MpcMeter * constants.MpcMeter * constants.MpcMeter)
	nH := func(a float64) float64 { return nH0SI / (a * a * a) }
	// Physical Hubble rate in s^-1.
	hubbleSI := func(a float64) float64 {
		return bg.HConf(a) / a / constants.MpcSecond
	}

	usePeebles := false
	xp := 1.0
	tb := p.TCMB / opt.AStart

	for i := 0; i < opt.N; i++ {
		lnA := lnA0 + float64(i)*dln
		a := math.Exp(lnA)
		tg := p.TCMB / a
		h.LnA[i] = lnA
		h.TGamma[i] = tg

		if !usePeebles {
			// Full Saha equilibrium (H + He) with T = T_gamma.
			xpS, xe := sahaSolve(newSaha(tg), nH(a), h.FHe)
			xp = xpS
			h.Xp[i] = xp
			h.Xe[i] = xe
			if xp < sahaSwitchXp {
				usePeebles = true
			}
		} else {
			// Advance the Peebles ODE for hydrogen across one grid step.
			// Immediately after the Saha hand-off the equation is stiff
			// (the net rate relaxes x_p to quasi-equilibrium much faster
			// than a Hubble time), so an exponential (linearized-implicit)
			// Euler step is used: x += f * (e^{J h} - 1)/J, which tracks
			// the equilibrium exactly in the stiff limit and reduces to
			// explicit Euler when the rates are slow. Helium follows Saha.
			const nSub = 8
			hSub := dln / nSub
			// T_b is fixed across the grid step, and so are the rates that
			// depend on it alone.
			step := newPeeblesRates(tb)
			for s := 0; s < nSub; s++ {
				lnAs := lnA - dln + float64(s)*hSub
				as := math.Exp(lnAs + 0.5*hSub) // midpoint scale factor
				// The substep-local background quantities are shared by the
				// rate evaluation and both Jacobian probes.
				tgs, nHs, hubS := p.TCMB/as, nH(as), hubbleSI(as)
				he := newSaha(tgs).helium(nHs)
				rates := step
				if tb <= 0 {
					rates = newPeeblesRates(tgs)
				}
				f := func(x float64) float64 {
					xe := x + he.ions(h.FHe, math.Max(x, 1e-12))
					return dxpDlnA(rates, x, xe, nHs, hubS)
				}
				fx := f(xp)
				delta := 1e-6 + 1e-4*xp
				jac := (f(xp+delta) - f(xp-delta)) / (2.0 * delta)
				z := jac * hSub
				var phi float64
				if math.Abs(z) > 1e-6 {
					phi = math.Expm1(z) / z
				} else {
					phi = 1.0 + 0.5*z
				}
				xp += fx * phi * hSub
				if xp < 0 {
					xp = 0
				}
				if xp > 1 {
					xp = 1
				}
			}
			h.Xp[i] = xp
			h.Xe[i] = xp + newSaha(tg).helium(nH(a)).ions(h.FHe, math.Max(xp, 1e-12))
		}

		// Baryon temperature: locked to T_gamma while the Compton rate
		// dominates, explicit midpoint step afterwards.
		rate := comptonRate(h.Xe[i], h.FHe, a, p.TCMB)
		if rate > 300.0*hubbleSI(a) {
			tb = tg
		} else if i > 0 {
			aPrev := math.Exp(lnA - dln)
			d := func(aa, T float64) float64 {
				r := comptonRate(h.Xe[i], h.FHe, aa, p.TCMB)
				return -2.0*T + r/hubbleSI(aa)*(p.TCMB/aa-T)
			}
			k1 := d(aPrev, tb)
			k2 := d(math.Exp(lnA-0.5*dln), tb+0.5*dln*k1)
			tb += dln * k2
		}
		h.TBaryon[i] = tb
	}
	return h, nil
}

// sahaPrefactor returns (2 pi m_e k T / h_planck^2)^(3/2) in m^-3 at
// kT = kt joules.
func sahaPrefactor(kt float64) float64 {
	hPlanck := 2.0 * math.Pi * constants.HBar
	return math.Pow(2.0*math.Pi*constants.ElectronMassKg*kt/(hPlanck*hPlanck), 1.5)
}

// saha is the temperature-only part of the Saha equation at one T: kT and
// the prefactor, which hydrogen and both helium stages share.
type saha struct{ kt, pref float64 }

func newSaha(tK float64) saha {
	s := saha{kt: constants.KBoltzmann * tK}
	// Once hydrogen's factor, the lowest potential's, is cut off (below
	// ~240 K) so is every other: the prefactor would never be read.
	if s.arg(chiH) <= 650 {
		s.pref = sahaPrefactor(s.kt)
	}
	return s
}

// arg is chi/kT for a potential of chiEV electron-volts.
func (s saha) arg(chiEV float64) float64 { return chiEV * constants.EVJoule / s.kt }

// factor returns (2 pi m_e k T / h_planck^2)^(3/2) exp(-chi/kT) / nH, the
// dimensionless right-hand side of the Saha equation per ion state.
func (s saha) factor(nHm3, chiEV float64) float64 {
	arg := s.arg(chiEV)
	if arg > 650 {
		return 0
	}
	return s.pref * math.Exp(-arg) / nHm3
}

// heliumRates are the two helium Saha ratios at one (T, n_H): r1 is the
// He I factor times 4 (the statistical weights), r2 the He II factor.
type heliumRates struct{ r1, r2 float64 }

func (s saha) helium(nHm3 float64) heliumRates {
	return heliumRates{r1: 4.0 * s.factor(nHm3, chiHeI), r2: s.factor(nHm3, chiHeII)}
}

// ions returns x_HeII + 2 x_HeIII (per hydrogen nucleus) in Saha
// equilibrium at electron fraction xe.
func (r heliumRates) ions(fHe, xe float64) float64 {
	u1 := r.r1 / xe
	u2 := u1 * r.r2 / xe
	den := 1.0 + u1 + u2
	return fHe * (u1 + 2.0*u2) / den
}

// sahaSolve returns (x_p, x_e) from the coupled H + He Saha system by
// damped fixed-point iteration. The three Saha factors depend only on
// (T, nHm3), so they are computed once and the iteration itself is pure
// algebra — the exponentials stay out of the convergence loop.
func sahaSolve(s saha, nHm3, fHe float64) (xp, xe float64) {
	sH := s.factor(nHm3, chiH)
	he := s.helium(nHm3)
	xe = 1.0 + 2.0*fHe // fully ionized guess
	for iter := 0; iter < 200; iter++ {
		xeSafe := math.Max(xe, 1e-12)
		// x_p x_e/(1-x_p) = sH  =>  x_p = sH/(sH + x_e).
		xp = sH / (sH + xeSafe)
		xeNew := xp + he.ions(fHe, xeSafe)
		if math.Abs(xeNew-xe) < 1e-13*(1.0+xeNew) {
			xe = xeNew
			break
		}
		xe = 0.5*xe + 0.5*xeNew
	}
	xp = sH / (sH + math.Max(xe, 1e-12))
	return xp, xe
}

// alphaB returns the case-B recombination coefficient in m^3/s
// (Pequignot, Petitjean & Boisson 1991 fit with the standard fudge).
func alphaB(tK float64) float64 {
	t4 := tK / 1e4
	cm3 := alphaFudge * 1e-13 * 4.309 * math.Pow(t4, -0.6166) /
		(1.0 + 0.6703*math.Pow(t4, 0.5300))
	return cm3 * 1e-6
}

// peeblesRates are the factors of the Peebles rate that depend on the
// baryon temperature alone: alpha_B, the photoionization rate beta from the
// n=2 level and the Ly-alpha Boltzmann factor (0 where it would underflow).
type peeblesRates struct{ alpha, beta, lyBoltz float64 }

func newPeeblesRates(tb float64) peeblesRates {
	kTb := constants.KBoltzmann * tb
	r := peeblesRates{alpha: alphaB(tb)}
	// Detailed-balance photoionization rate from the n=2 level.
	r.beta = r.alpha * sahaPrefactor(kTb) * math.Exp(-e2sEV*constants.EVJoule/kTb)
	// Boltzmann factor for the net 2->1 source uses the Ly-alpha energy.
	if arg := eLyAlphaEV * constants.EVJoule / kTb; arg < 650 {
		r.lyBoltz = math.Exp(-arg)
	}
	return r
}

// dxpDlnA is the Peebles three-level-atom rate dx_p/dln a at the rates r.
func dxpDlnA(r peeblesRates, xp, xe, nHm3, hubble float64) float64 {
	// Ly-alpha escape (Peebles C factor).
	n1s := (1.0 - xp) * nHm3
	if n1s < 0 {
		n1s = 0
	}
	kLy := lambdaLyAlph * lambdaLyAlph * lambdaLyAlph / (8.0 * math.Pi * hubble)
	c := (1.0 + kLy*lambda2s1s*n1s) / (1.0 + kLy*(lambda2s1s+r.beta)*n1s)
	var up float64
	if r.lyBoltz > 0 { // exp(-arg) > 0 for every arg < 650
		up = r.beta * (1.0 - xp) * r.lyBoltz
	}
	down := r.alpha * xp * xe * nHm3
	return c * (up - down) / hubble
}

// comptonRate returns the Compton heating rate coefficient
// (8/3) sigma_T a_r T_gamma^4 x_e / (m_e c (1 + f_He + x_e)) in s^-1.
func comptonRate(xe, fHe, a, tcmb float64) float64 {
	tg := tcmb / a
	// Radiation energy density u = a_r T^4 with
	// a_r = pi^2 k^4/(15 hbar^3 c^3).
	kt := constants.KBoltzmann * tg
	u := math.Pi * math.Pi / 15.0 * kt * kt * kt * kt /
		(constants.HBar * constants.HBar * constants.HBar *
			constants.CLight * constants.CLight * constants.CLight)
	return 8.0 / 3.0 * constants.SigmaThomsonM2 * u /
		(constants.ElectronMassKg * constants.CLight) *
		xe / (1.0 + fHe + xe)
}

// XeAt interpolates x_e at scale factor a (linear in ln a; the table is
// dense enough that this is sub-0.1%).
func (h *History) XeAt(a float64) float64 {
	return interp(h.LnA, h.Xe, math.Log(a))
}

// TBaryonAt interpolates the baryon temperature at scale factor a.
func (h *History) TBaryonAt(a float64) float64 {
	return interp(h.LnA, h.TBaryon, math.Log(a))
}

func interp(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	// Uniform grid: direct index.
	dx := (xs[n-1] - xs[0]) / float64(n-1)
	i := int((x - xs[0]) / dx)
	if i > n-2 {
		i = n - 2
	}
	f := (x - xs[i]) / (xs[i+1] - xs[i])
	return ys[i]*(1.0-f) + ys[i+1]*f
}
