package spectra

import (
	"fmt"
	"math"

	"plinger/internal/constants"
)

// Primordial describes the initial perturbation spectrum: a power law
// P_C(k) = Amp (k/Pivot)^(n-1) in the dimensionless normalization constant
// C of MB95 eq. (96), the unit in which the transfer functions are
// computed.
type Primordial struct {
	// N is the spectral index (1 = scale-invariant, the paper's choice).
	N float64
	// Amp is the amplitude at the pivot.
	Amp float64
	// Pivot is the pivot wavenumber in Mpc^-1.
	Pivot float64
}

// DefaultPrimordial returns a scale-invariant spectrum of unit amplitude.
func DefaultPrimordial(n float64) Primordial {
	return Primordial{N: n, Amp: 1.0, Pivot: 0.01}
}

// At evaluates P_C(k).
func (p Primordial) At(k float64) float64 {
	n := p.N
	if n == 0 {
		n = 1
	}
	pivot := p.Pivot
	if pivot <= 0 {
		pivot = 0.01
	}
	amp := p.Amp
	if amp == 0 {
		amp = 1
	}
	return amp * math.Pow(k/pivot, n-1.0)
}

// DefaultLs returns the default multipole ladder for a C_l run up to
// lmaxCl: every l at the bottom, logarithmically thinning steps above.
// The facade and the command-line drivers share this so their spectra,
// ablations and Bessel-table cache entries line up.
func DefaultLs(lmaxCl int) []int {
	var ls []int
	for l := 2; l <= lmaxCl; {
		ls = append(ls, l)
		l += 1 + l/8
	}
	return ls
}

// ClSpectrum is an angular power spectrum with its normalization state.
type ClSpectrum struct {
	L  []int
	Cl []float64
	// TCMB (kelvin) converts to thermodynamic temperature units.
	TCMB float64
}

// Cl computes the temperature angular power spectrum at the requested
// multipoles by the brute-force LINGER method:
//
//	C_l = 4 pi Integral dlnk P_C(k) |Theta_l(k, tau0)|^2
//
// using trapezoidal quadrature over the sweep's k grid. Multipoles beyond a
// mode's hierarchy cutoff contribute zero (they carry no power anyway when
// the per-k cutoff respects dispatch.PerKLMax).
func (s *Sweep) Cl(ls []int, prim Primordial, tcmb float64) (*ClSpectrum, error) {
	if len(s.KValues) < 3 {
		return nil, fmt.Errorf("spectra: need at least 3 wavenumbers, got %d", len(s.KValues))
	}
	if s.plan != nil {
		return nil, errReadOff
	}
	out := &ClSpectrum{L: append([]int(nil), ls...), Cl: make([]float64, len(ls)), TCMB: tcmb}
	for j, l := range ls {
		var sum float64
		for i := range s.KValues {
			k := s.KValues[i]
			r := s.Results[i]
			var th float64
			if l < len(r.ThetaL) {
				th = r.ThetaL[l]
			}
			f := prim.At(k) * th * th / k // integrand of Integral dk
			w := trapWeight(s.KValues, i)
			sum += w * f
		}
		out.Cl[j] = 4.0 * math.Pi * sum
	}
	return out, nil
}

// ClPolarization computes the E-mode-like polarization spectrum from the
// G_l hierarchy (the 1995 convention, not the later E/B decomposition).
func (s *Sweep) ClPolarization(ls []int, prim Primordial, tcmb float64) (*ClSpectrum, error) {
	if s.plan != nil {
		return nil, errReadOff
	}
	out := &ClSpectrum{L: append([]int(nil), ls...), Cl: make([]float64, len(ls)), TCMB: tcmb}
	for j, l := range ls {
		var sum float64
		for i := range s.KValues {
			k := s.KValues[i]
			r := s.Results[i]
			var th float64
			if l < len(r.ThetaPL) {
				th = r.ThetaPL[l]
			}
			sum += trapWeight(s.KValues, i) * prim.At(k) * th * th / k
		}
		out.Cl[j] = 4.0 * math.Pi * sum
	}
	return out, nil
}

func trapWeight(x []float64, i int) float64 {
	n := len(x)
	switch i {
	case 0:
		return 0.5 * (x[1] - x[0])
	case n - 1:
		return 0.5 * (x[n-1] - x[n-2])
	default:
		return 0.5 * (x[i+1] - x[i-1])
	}
}

// NormalizeCOBE rescales the spectrum (in place) so the quadrupole matches
// the COBE Q_rms-PS value (microkelvin), the normalization used for the
// paper's Figure 2: C_2 = (4 pi/5)(Q/T0)^2. It returns the scale factor
// applied, which also rescales the primordial amplitude and the matter
// power spectrum.
func (c *ClSpectrum) NormalizeCOBE(qRmsPSMicroK float64) (float64, error) {
	if !(qRmsPSMicroK > 0) || math.IsInf(qRmsPSMicroK, 0) {
		return 0, fmt.Errorf("spectra: COBE quadrupole Q = %g uK is not a positive amplitude", qRmsPSMicroK)
	}
	var c2 float64
	for i, l := range c.L {
		if l == 2 {
			c2 = c.Cl[i]
		}
	}
	if c2 <= 0 {
		return 0, fmt.Errorf("spectra: quadrupole missing or non-positive; include l=2 in the request")
	}
	t0 := c.TCMB
	if t0 <= 0 {
		t0 = constants.TCMBDefault
	}
	q := qRmsPSMicroK * 1e-6 / t0 // dimensionless Q/T0
	target := 4.0 * math.Pi / 5.0 * q * q
	scale := target / c2
	for i := range c.Cl {
		c.Cl[i] *= scale
	}
	return scale, nil
}

// BandPower returns the conventional band power dT_l = T0
// sqrt(l(l+1)C_l/2pi) in microkelvin at index i.
func (c *ClSpectrum) BandPower(i int) float64 {
	l := float64(c.L[i])
	t0 := c.TCMB
	if t0 <= 0 {
		t0 = constants.TCMBDefault
	}
	v := l * (l + 1.0) * c.Cl[i] / (2.0 * math.Pi)
	if v < 0 {
		return 0
	}
	return t0 * 1e6 * math.Sqrt(v)
}
