// Package thermo assembles the thermodynamic history needed by the
// perturbation equations from the ionization history: the Thomson opacity
// kappa-dot = a n_e sigma_T (per unit conformal time), the optical depth and
// visibility function, and the baryon sound speed. These are tabulated once
// per model and interpolated from the per-k right-hand sides, which is where
// essentially all of LINGER's CPU time is spent.
package thermo

import (
	"fmt"
	"math"

	"plinger/internal/constants"
	"plinger/internal/cosmology"
	"plinger/internal/recomb"
	"plinger/internal/spline"
)

// Thermo holds the tabulated thermodynamic history for one model.
type Thermo struct {
	BG   *cosmology.Background
	Hist *recomb.History

	opac  *spline.Spline // ln(kappa-dot) vs ln a
	depth *spline.Spline // ln(optical depth) vs ln a  (kappa from a to 1)
	cs2   *spline.Spline // baryon sound speed squared vs ln a

	lnAMin, lnAMax float64
	// lnADepthMax ends the depth spline where kappa underflows (see build).
	lnADepthMax float64

	tauRec float64 // conformal time of peak visibility
	aRec   float64 // scale factor of peak visibility
}

// New computes the thermodynamic history for the background.
func New(bg *cosmology.Background, opt recomb.Options) (*Thermo, error) {
	hist, err := recomb.Compute(bg, opt)
	if err != nil {
		return nil, err
	}
	th := &Thermo{BG: bg, Hist: hist}
	if err := th.build(); err != nil {
		return nil, err
	}
	return th, nil
}

func (th *Thermo) build() error {
	h := th.Hist
	n := len(h.LnA)
	th.lnAMin, th.lnAMax = h.LnA[0], h.LnA[n-1]

	// Opacity kappa-dot(a) = x_e n_H0 sigma_T / a^2 in Mpc^-1 (n_H0 is
	// comoving, so physical n_e = x_e n_H0/a^3 and the conformal-time
	// opacity is a n_e sigma_T = x_e n_H0 sigma_T / a^2). Each knot's a,
	// ln T_b and kappa-dot = exp(lnOp) are computed once and reused below.
	lnOp := make([]float64, n)
	kd := make([]float64, n)
	cs2 := make([]float64, n)
	// f is the optical depth's integrand kappa-dot/(aH) in ln a.
	f := make([]float64, n)
	lnT := make([]float64, n)
	for i, tb := range h.TBaryon {
		lnT[i] = math.Log(tb)
	}
	fHe := h.FHe
	for i := 0; i < n; i++ {
		a := math.Exp(h.LnA[i])
		xe := math.Max(h.Xe[i], 1e-12)
		op := xe * h.NH0 * constants.SigmaThomsonMpc2 / (a * a)
		lnOp[i] = math.Log(op)
		kd[i] = math.Exp(lnOp[i])
		f[i] = kd[i] / th.BG.HConf(a)

		// Sound speed c_s^2 = (k T_b / mu m_H c^2)(1 - (1/3) dlnT/dlna).
		lo, hi := max(i-1, 0), min(i+1, n-1)
		dlnT := (lnT[hi] - lnT[lo]) / (h.LnA[hi] - h.LnA[lo])
		mu := (1.0 + 4.0*fHe) / (1.0 + fHe + h.Xe[i])
		kT := constants.KBoltzmann * h.TBaryon[i]
		mc2 := mu * constants.HydrogenMassKg * constants.CLight * constants.CLight
		c := kT / mc2 * (1.0 - dlnT/3.0)
		if c < 0 {
			c = 0
		}
		cs2[i] = c
	}
	var err error
	th.opac, err = spline.New(h.LnA, lnOp)
	if err != nil {
		return err
	}
	th.cs2, err = spline.New(h.LnA, cs2)
	if err != nil {
		return err
	}

	// Optical depth kappa(a) = integral_a^1 kappa-dot dtau
	//             = integral kappa-dot/(aH) dln a, accumulated backwards.
	depth := make([]float64, n)
	depth[n-1] = 0
	for i := n - 2; i >= 0; i-- {
		dl := h.LnA[i+1] - h.LnA[i]
		depth[i] = depth[i+1] + 0.5*dl*(f[i]+f[i+1])
	}
	// The depth spline works in ln kappa, and kappa -> 0 at the last knot:
	// a raw ln would put a ~ -700 cliff there and the cubic would
	// oscillate by tens of e-folds across the final intervals (optical
	// depths of 1e+13 where the truth is 1e-8). End the spline at the last
	// knot with kappa > 1e-30 instead — beyond it e^-kappa is 1 to machine
	// precision for every consumer, so clamping the lookup there is exact.
	m := n - 1
	for m > 0 && depth[m] <= 1e-30 {
		m--
	}
	if m < 2 {
		return fmt.Errorf("thermo: optical depth table collapsed (%d usable knots)", m+1)
	}
	lnDepth := make([]float64, m+1)
	for i := 0; i <= m; i++ {
		lnDepth[i] = math.Log(depth[i])
	}
	th.lnADepthMax = h.LnA[m]
	th.depth, err = spline.New(h.LnA[:m+1], lnDepth)
	if err != nil {
		return err
	}

	// Peak of the visibility function g = kappa-dot e^-kappa.
	best, bestG := 0, -1.0
	for i := 0; i < n; i++ {
		g := kd[i] * math.Exp(-depth[i])
		if g > bestG {
			bestG, best = g, i
		}
	}
	if best == 0 || best == n-1 {
		return fmt.Errorf("thermo: visibility peak at grid edge (index %d)", best)
	}
	th.aRec = math.Exp(h.LnA[best])
	th.tauRec = th.BG.Tau(th.aRec)
	return nil
}

// Opacity returns kappa-dot = a n_e sigma_T in Mpc^-1 at scale factor a.
func (th *Thermo) Opacity(a float64) float64 {
	l := clamp(math.Log(a), th.lnAMin, th.lnAMax)
	return math.Exp(th.opac.Eval(l))
}

// OpticalDepth returns the Thomson optical depth from a to the present.
func (th *Thermo) OpticalDepth(a float64) float64 {
	l := clamp(math.Log(a), th.lnAMin, th.lnADepthMax)
	return math.Exp(th.depth.Eval(l))
}

// Visibility returns g(a) = kappa-dot e^-kappa (per unit conformal time).
// The log/clamp of the abscissa is shared between the two spline lookups
// and the product is fused into a single exponential of
// ln(kappa-dot) - kappa, instead of the three transcendental round-trips
// of calling Opacity and OpticalDepth separately.
func (th *Thermo) Visibility(a float64) float64 {
	l := math.Log(a)
	_, _, _, vis := th.AtLnA(l)
	return vis
}

// AtLnA is the fused single-lookup fast path of the thermodynamic history:
// for one (unclamped) ln a it returns the opacity kappa-dot, the baryon
// sound speed squared, the optical depth kappa and the visibility
// kappa-dot e^-kappa, sharing the clamped abscissa across the spline
// evaluations and the exponentials across the outputs. The flattened
// evolution tables are built from it.
func (th *Thermo) AtLnA(lnA float64) (kd, cs2, kappa, vis float64) {
	l := clamp(lnA, th.lnAMin, th.lnAMax)
	lnOp := th.opac.Eval(l)
	kd = math.Exp(lnOp)
	cs2 = th.cs2.Eval(l)
	if cs2 < 0 {
		cs2 = 0
	}
	ld := l
	if ld > th.lnADepthMax {
		ld = th.lnADepthMax
	}
	kappa = math.Exp(th.depth.Eval(ld))
	vis = math.Exp(lnOp - kappa)
	return kd, cs2, kappa, vis
}

// Cs2 returns the baryon sound speed squared (c=1 units) at scale factor a.
func (th *Thermo) Cs2(a float64) float64 {
	l := clamp(math.Log(a), th.lnAMin, th.lnAMax)
	c := th.cs2.Eval(l)
	if c < 0 {
		return 0
	}
	return c
}

// ARec returns the scale factor of peak visibility (recombination).
func (th *Thermo) ARec() float64 { return th.aRec }

// TauRec returns the conformal time of peak visibility (Mpc).
func (th *Thermo) TauRec() float64 { return th.tauRec }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
