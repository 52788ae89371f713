package cosmology

import (
	"fmt"
	"math"

	"plinger/internal/constants"
	"plinger/internal/specfunc"
	"plinger/internal/spline"
)

// NQDefault is the default number of momentum-grid points for the massive
// neutrino phase-space integration. The paper integrates the full momentum
// dependence of the massive-neutrino distribution with no free-streaming
// approximation; Gauss-Laguerre nodes make that integral spectrally accurate.
const NQDefault = 16

// Grho collects the background source terms of the Einstein equations at a
// given scale factor: each field (except A and HConf) is 8 pi G a^2 rho_i in
// Mpc^-2.
type Grho struct {
	A      float64
	Total  float64 // all species
	C      float64 // cold dark matter
	B      float64 // baryons
	G      float64 // photons
	Nu     float64 // massless neutrinos (all species)
	HNu    float64 // massive neutrinos (all species)
	PHNu3  float64 // 3 * 8 pi G a^2 P of massive neutrinos
	Lambda float64
	HConf  float64 // conformal Hubble rate aH = a'/a in Mpc^-1
}

// Background tabulates the homogeneous cosmology for a parameter set.
type Background struct {
	P Params

	// Grhom is 8 pi G rho_crit / c^2 = 3 H0^2 in Mpc^-2; Grhog and Grhor1
	// are the photon and single-massless-neutrino radiation coefficients
	// (8 pi G a^2 rho = Grho_x / a^2 for radiation).
	Grhom, Grhog, Grhor1 float64

	// MassQ is m_nu c^2/(k T_nu0): the neutrino mass in units of the
	// momentum-grid variable (am = a*MassQ enters the energy
	// eps = sqrt(q^2 + am^2)).
	MassQ float64
	// Q and W are the Gauss-Laguerre momentum nodes and weights such that
	// Integral dq q^2 f0(q) g(q) = sum W_i g(Q_i).
	Q, W []float64
	// DlnF0DlnQ holds dln f0/dln q = -q/(1+e^-q) at the nodes.
	DlnF0DlnQ []float64

	// OmegaHNu is the massive-neutrino density parameter today.
	OmegaHNu float64

	rhoNu *spline.Spline // ln(rho-factor) vs ln(am)
	pNu   *spline.Spline // ln(p-factor) vs ln(am)

	tauOfLnA *spline.Spline
	lnAOfTau *spline.Spline
	tau0     float64
	aMin     float64

	// Q3Norm is the massless momentum integral Integral q^3 f0 dq =
	// sum W_i Q_i: what the massive-neutrino sums are normalized against.
	Q3Norm float64
}

// New builds the background tables. The model must be spatially flat to the
// tolerance required by the (flat-space) perturbation equations; use
// NewFlattened to absorb any residual into OmegaC.
func New(p Params) (*Background, error) {
	bg, err := newBackground(p)
	if err != nil {
		return nil, err
	}
	if k := bg.OmegaK(); math.Abs(k) > 1e-5 {
		return nil, fmt.Errorf("cosmology: model not flat (Omega_K = %g); the linear equations assume K=0 (use NewFlattened)", k)
	}
	return bg, nil
}

// NewFlattened adjusts OmegaC so the model is exactly flat (including the
// radiation and massive-neutrino contributions) and then builds the tables.
func NewFlattened(p Params) (*Background, error) {
	bg, err := newBackground(p)
	if err != nil {
		return nil, err
	}
	adjusted := p
	adjusted.OmegaC += bg.OmegaK()
	if adjusted.OmegaC < 0 {
		return nil, fmt.Errorf("cosmology: flattening requires Omega_c = %g < 0", adjusted.OmegaC)
	}
	return newBackground(adjusted)
}

func newBackground(p Params) (*Background, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bg := &Background{P: p}
	h0 := constants.HubbleInvMpc(p.H)
	bg.Grhom = 3.0 * h0 * h0
	bg.Grhog = bg.Grhom * p.OmegaGamma()
	bg.Grhor1 = bg.Grhom * constants.NuPerGamma * p.OmegaGamma()

	if p.NNuMassive > 0 {
		q, w, err := specfunc.FermiDiracMomentumGrid(NQDefault)
		if err != nil {
			return nil, err
		}
		bg.Q, bg.W = q, w
		bg.DlnF0DlnQ = make([]float64, len(q))
		for i, qi := range q {
			bg.DlnF0DlnQ[i] = -qi / (1.0 + math.Exp(-qi))
		}
		bg.Q3Norm = 0.0
		for i := range q {
			bg.Q3Norm += w[i] * q[i]
		}
		bg.MassQ = constants.NeutrinoMassToQ(p.MNuEV, p.TCMB)
		if err := bg.buildNuSplines(); err != nil {
			return nil, err
		}
		bg.OmegaHNu = float64(p.NNuMassive) * constants.NuPerGamma *
			p.OmegaGamma() * bg.rhoNuFactor(bg.MassQ)
	}

	if err := bg.buildTauTable(); err != nil {
		return nil, err
	}
	return bg, nil
}

// OmegaK returns the curvature density parameter implied by the inputs.
func (bg *Background) OmegaK() float64 {
	p := bg.P
	return 1.0 - p.OmegaC - p.OmegaB - p.OmegaLambda -
		p.OmegaGamma() - p.OmegaNuMassless() - bg.OmegaHNu
}

// buildNuSplines tabulates the massive-neutrino energy-density and pressure
// factors (relative to one massless species) against ln(am).
func (bg *Background) buildNuSplines() error {
	const (
		lnAmMin = -12.0
		lnAmMax = 23.0 // am up to ~1e10
		n       = 700
	)
	lnAm := make([]float64, n)
	lnRho := make([]float64, n)
	lnP := make([]float64, n)
	for i := 0; i < n; i++ {
		lnAm[i] = lnAmMin + (lnAmMax-lnAmMin)*float64(i)/float64(n-1)
		am := math.Exp(lnAm[i])
		rho, pr := bg.nuIntegrals(am)
		lnRho[i] = math.Log(rho)
		lnP[i] = math.Log(pr)
	}
	var err error
	bg.rhoNu, err = spline.New(lnAm, lnRho)
	if err != nil {
		return err
	}
	bg.pNu, err = spline.New(lnAm, lnP)
	return err
}

// nuIntegrals evaluates the dimensionless energy and pressure factors by
// direct quadrature: rho = Int q^2 eps f0 / Int q^3 f0 and
// p = Int (q^4/eps) f0 / Int q^3 f0 (so rho -> 1 and p -> 1/3 * 3 = ...
// p is normalized so that p -> 1 as am -> 0, i.e. P = rho/3 for massless).
func (bg *Background) nuIntegrals(am float64) (rho, p float64) {
	var sr, sp float64
	for i := range bg.Q {
		q := bg.Q[i]
		eps := math.Sqrt(q*q + am*am)
		sr += bg.W[i] * eps
		sp += bg.W[i] * q * q / eps
	}
	return sr / bg.Q3Norm, sp / bg.Q3Norm
}

// rhoNuFactor returns rho_massive / rho_one_massless at dimensionless mass
// am = a m/(k T_nu0).
func (bg *Background) rhoNuFactor(am float64) float64 {
	if bg.rhoNu == nil {
		return 1.0
	}
	if am <= 0 {
		return 1.0
	}
	l := math.Log(am)
	if l < bg.rhoNu.Xmin() {
		return 1.0
	}
	return math.Exp(bg.rhoNu.Eval(l))
}

// pNuFactor returns 3 P_massive / rho_one_massless (so it equals 1 for a
// massless species).
func (bg *Background) pNuFactor(am float64) float64 {
	if bg.pNu == nil {
		return 1.0
	}
	if am <= 0 {
		return 1.0
	}
	l := math.Log(am)
	if l < bg.pNu.Xmin() {
		return 1.0
	}
	return math.Exp(bg.pNu.Eval(l))
}

// RhoNuMassive returns the massive-neutrino (rho, 3P) factors relative to
// one massless species at scale factor a; both are 1 in the relativistic
// limit.
func (bg *Background) RhoNuMassive(a float64) (rhoFac, p3Fac float64) {
	am := a * bg.MassQ
	return bg.rhoNuFactor(am), bg.pNuFactor(am)
}

// Eval fills g with the background densities at scale factor a.
// It performs no allocation and is safe for concurrent use.
func (bg *Background) Eval(a float64, g *Grho) {
	p := bg.P
	g.A = a
	g.C = bg.Grhom * p.OmegaC / a
	g.B = bg.Grhom * p.OmegaB / a
	a2 := a * a
	g.G = bg.Grhog / a2
	g.Nu = bg.Grhor1 * p.NNuMassless / a2
	if p.NNuMassive > 0 {
		am := a * bg.MassQ
		g.HNu = bg.Grhor1 * float64(p.NNuMassive) * bg.rhoNuFactor(am) / a2
		g.PHNu3 = bg.Grhor1 * float64(p.NNuMassive) * bg.pNuFactor(am) / a2
	} else {
		g.HNu, g.PHNu3 = 0, 0
	}
	g.Lambda = bg.Grhom * p.OmegaLambda * a2
	g.Total = g.C + g.B + g.G + g.Nu + g.HNu + g.Lambda
	g.HConf = math.Sqrt(g.Total / 3.0)
}

// HConf returns the conformal Hubble rate a'/a in Mpc^-1. It is the
// single-field fast path of Eval: the total density is accumulated in the
// same order (so the value is bitwise identical), but the per-species
// struct fills and — decisively — the massive-neutrino pressure spline are
// skipped. The tau-table and thermodynamic-history builders evaluate it
// thousands of times per model.
func (bg *Background) HConf(a float64) float64 {
	p := bg.P
	a2 := a * a
	var hnu float64
	if p.NNuMassive > 0 {
		hnu = bg.Grhor1 * float64(p.NNuMassive) * bg.rhoNuFactor(a*bg.MassQ) / a2
	}
	total := bg.Grhom*p.OmegaC/a + bg.Grhom*p.OmegaB/a
	total += bg.Grhog / a2
	total += bg.Grhor1 * p.NNuMassless / a2
	total += hnu
	total += bg.Grhom * p.OmegaLambda * a2
	return math.Sqrt(total / 3.0)
}

// buildTauTable integrates dtau = dln a / (aH) on a dense logarithmic grid.
func (bg *Background) buildTauTable() error {
	const (
		lnAMin = -23.0 // a = 1e-10
		n      = 4097
	)
	bg.aMin = math.Exp(lnAMin)
	lnA := make([]float64, n)
	tau := make([]float64, n)
	f := func(l float64) float64 { return 1.0 / bg.HConf(math.Exp(l)) }
	// Radiation-dominated analytic start: tau(aMin) = 1/(aH)(aMin).
	lnA[0] = lnAMin
	tau[0] = 1.0 / bg.HConf(bg.aMin)
	h := (0.0 - lnAMin) / float64(n-1)
	for i := 1; i < n; i++ {
		l0 := lnAMin + float64(i-1)*h
		l1 := l0 + h
		lnA[i] = l1
		// Simpson within the interval: O(h^5) local error.
		tau[i] = tau[i-1] + h/6.0*(f(l0)+4.0*f(0.5*(l0+l1))+f(l1))
	}
	var err error
	bg.tauOfLnA, err = spline.New(lnA, tau)
	if err != nil {
		return err
	}
	bg.lnAOfTau, err = spline.New(tau, lnA)
	if err != nil {
		return err
	}
	bg.tau0 = tau[n-1]
	return nil
}

// Tau returns the conformal time at scale factor a (Mpc).
func (bg *Background) Tau(a float64) float64 {
	if a < bg.aMin {
		// Deep radiation domination: tau proportional to a.
		return bg.tauOfLnA.Eval(math.Log(bg.aMin)) * a / bg.aMin
	}
	return bg.tauOfLnA.Eval(math.Log(a))
}

// AofTau returns the scale factor at conformal time tau.
func (bg *Background) AofTau(tau float64) float64 {
	return math.Exp(bg.lnAOfTau.Eval(tau))
}

// Tau0 returns the conformal age of the universe (Mpc).
func (bg *Background) Tau0() float64 { return bg.tau0 }

// GrhoPrimeLnA returns d(8 pi G a^2 rho_total)/d ln a, used for the
// conformal Hubble derivative H' = dH/dtau = GrhoPrimeLnA/6 evaluated at a.
func (bg *Background) GrhoPrimeLnA(a float64) float64 {
	p := bg.P
	a2 := a * a
	d := -bg.Grhom*(p.OmegaC+p.OmegaB)/a -
		2.0*bg.Grhog/a2 -
		2.0*bg.Grhor1*p.NNuMassless/a2 +
		2.0*bg.Grhom*p.OmegaLambda*a2
	if p.NNuMassive > 0 {
		am := a * bg.MassQ
		rho := bg.rhoNuFactor(am)
		// d/dlna [rho(am)/a^2] = [dln rho/dln am - 2] * rho/a^2
		var slope float64
		if am > 0 && math.Log(am) > bg.rhoNu.Xmin() {
			slope = bg.rhoNu.Deriv(math.Log(am))
		}
		d += bg.Grhor1 * float64(p.NNuMassive) * (slope - 2.0) * rho / a2
	}
	return d
}

// HConfDot returns dH_conf/dtau at scale factor a.
func (bg *Background) HConfDot(a float64) float64 {
	return bg.GrhoPrimeLnA(a) / 6.0
}

// MatterRadiationEqualityA returns the scale factor where the matter and
// radiation (photons + massless neutrinos) densities are equal.
func (bg *Background) MatterRadiationEqualityA() float64 {
	p := bg.P
	om := p.OmegaC + p.OmegaB
	or := p.OmegaGamma() + p.OmegaNuMassless()
	return or / om
}
