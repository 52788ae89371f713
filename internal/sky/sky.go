// Package sky synthesizes CMB temperature maps from angular power spectra —
// the paper's Figure 3 ("a simulated sky map, analogous to the COBE sky
// map ... the angular resolution is one-half degree ... maximum temperature
// differences are +/- 200 micro-K") — and the conformal-Newtonian potential
// movie (psi on a comoving 100 Mpc square through recombination).
//
// Two synthesis paths are provided: an exact low-l full-sky spherical
// harmonic synthesis (COBE-like, ten-degree scales) and a flat-sky FFT
// patch for the half-degree map.
package sky

import (
	"fmt"
	"math"
	"math/rand"

	"plinger/internal/fourier"
	"plinger/internal/specfunc"
	"plinger/internal/spline"
)

// Spectrum is the minimal view of an angular power spectrum needed for
// synthesis: C_l in (Delta T/T)^2 units at integer multipoles, plus the
// temperature scale.
type Spectrum struct {
	L    []int
	Cl   []float64
	TCMB float64
}

// interpolator returns a function C(l) valid between the sampled
// multipoles, interpolating l(l+1)C_l linearly in ln l (the natural
// variable for CMB spectra).
func (s *Spectrum) interpolator() (func(l float64) float64, error) {
	if len(s.L) < 2 {
		return nil, fmt.Errorf("sky: need at least two multipoles")
	}
	if !(s.TCMB > 0) || math.IsInf(s.TCMB, 0) {
		return nil, fmt.Errorf("sky: TCMB = %g is not a positive temperature", s.TCMB)
	}
	x := make([]float64, len(s.L))
	y := make([]float64, len(s.L))
	for i, l := range s.L {
		if l < 1 {
			return nil, fmt.Errorf("sky: multipole %d < 1", l)
		}
		x[i] = math.Log(float64(l))
		y[i] = float64(l*(l+1)) * s.Cl[i]
	}
	sp, err := spline.New(x, y)
	if err != nil {
		return nil, err
	}
	lmin, lmax := float64(s.L[0]), float64(s.L[len(s.L)-1])
	return func(l float64) float64 {
		if l > lmax {
			// No power is invented beyond the computed spectrum: maps are
			// band-limited by the resolution of the C_l run.
			return 0
		}
		if l < lmin {
			l = lmin
		}
		v := sp.Eval(math.Log(l)) / (l * (l + 1.0))
		if v < 0 {
			return 0
		}
		return v
	}, nil
}

// Map is a synthesized temperature map in microkelvin.
type Map struct {
	// Pix holds rows of pixels (row-major).
	Pix  [][]float64
	NX   int
	NY   int
	Desc string
}

// Stats returns the minimum, maximum and rms of the map.
func (m *Map) Stats() (min, max, rms float64) {
	min, max = math.Inf(1), math.Inf(-1)
	var sum, sum2 float64
	n := 0
	for _, row := range m.Pix {
		for _, v := range row {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
			sum2 += v * v
			n++
		}
	}
	mean := sum / float64(n)
	rms = math.Sqrt(sum2/float64(n) - mean*mean)
	return min, max, rms
}

// FullSky synthesizes an equirectangular full-sky map (nx = 2*ny grid) from
// the spectrum up to lmax, with a Gaussian realization seeded by seed.
// Suitable for COBE-like resolutions (lmax of order tens).
func FullSky(spec *Spectrum, lmax, ny int, seed int64) (*Map, error) {
	cOf, err := spec.interpolator()
	if err != nil {
		return nil, err
	}
	if lmax < 2 {
		return nil, fmt.Errorf("sky: lmax = %d < 2", lmax)
	}
	if ny < 1 {
		return nil, fmt.Errorf("sky: full sky needs at least one row, not %d", ny)
	}
	rng := rand.New(rand.NewSource(seed))
	// Draw a_lm: index [l][m], m >= 0. Real and imaginary parts are
	// independent N(0, C_l/2) for m > 0; a_l0 is real N(0, C_l).
	re := make([][]float64, lmax+1)
	im := make([][]float64, lmax+1)
	for l := 2; l <= lmax; l++ {
		cl := cOf(float64(l))
		re[l] = make([]float64, l+1)
		im[l] = make([]float64, l+1)
		re[l][0] = rng.NormFloat64() * math.Sqrt(cl)
		for m := 1; m <= l; m++ {
			re[l][m] = rng.NormFloat64() * math.Sqrt(cl/2)
			im[l][m] = rng.NormFloat64() * math.Sqrt(cl/2)
		}
	}
	nx := 2 * ny
	mp := &Map{NX: nx, NY: ny, Pix: make([][]float64, ny),
		Desc: fmt.Sprintf("full sky, lmax=%d", lmax)}
	t0uK := spec.TCMB * 1e6
	plm := make([]float64, lmax+1)
	for j := 0; j < ny; j++ {
		theta := math.Pi * (float64(j) + 0.5) / float64(ny)
		x := math.Cos(theta)
		row := make([]float64, nx)
		// Accumulate per-m Fourier coefficients along the ring.
		cosAmp := make([]float64, lmax+1)
		sinAmp := make([]float64, lmax+1)
		for m := 0; m <= lmax; m++ {
			plm = specfunc.AssociatedLegendreCol(lmax, m, x, plm)
			var cr, ci float64
			for l := 2; l <= lmax; l++ {
				if m > l {
					continue
				}
				cr += re[l][m] * plm[l]
				ci += im[l][m] * plm[l]
			}
			if m == 0 {
				cosAmp[0] = cr
				sinAmp[0] = 0
			} else {
				// a_lm Y_lm + a_l,-m Y_l,-m = 2[Re a_lm cos m phi
				//                              - Im a_lm sin m phi] N P_lm
				cosAmp[m] = 2 * cr
				sinAmp[m] = -2 * ci
			}
		}
		for i := 0; i < nx; i++ {
			phi := 2 * math.Pi * float64(i) / float64(nx)
			var v float64
			for m := 0; m <= lmax; m++ {
				if cosAmp[m] == 0 && sinAmp[m] == 0 {
					continue
				}
				v += cosAmp[m]*math.Cos(float64(m)*phi) + sinAmp[m]*math.Sin(float64(m)*phi)
			}
			row[i] = v * t0uK
		}
		mp.Pix[j] = row
	}
	return mp, nil
}

// FlatPatch synthesizes a square flat-sky patch of side sizeDeg degrees
// with n x n pixels (n a power of two) — the half-degree resolution map of
// Figure 3 uses sizeDeg/n ~ 0.5 degrees or finer.
func FlatPatch(spec *Spectrum, n int, sizeDeg float64, seed int64) (*Map, error) {
	if !fourier.IsPowerOfTwo(n) {
		return nil, fmt.Errorf("sky: patch size %d is not a power of two", n)
	}
	if !(sizeDeg > 0) || math.IsInf(sizeDeg, 0) {
		return nil, fmt.Errorf("sky: patch side %g deg is not a positive angle", sizeDeg)
	}
	cOf, err := spec.interpolator()
	if err != nil {
		return nil, err
	}
	lrad := sizeDeg * math.Pi / 180.0
	rng := rand.New(rand.NewSource(seed))
	grid := make([]complex128, n*n)
	// Fill Fourier modes with Hermitian symmetry so the field is real:
	// generate all modes independently, then symmetrize by construction:
	// a(-k) = conj(a(k)). Simplest robust approach: synthesize a complex
	// field and keep the real part, doubling the variance draw.
	for jy := 0; jy < n; jy++ {
		for jx := 0; jx < n; jx++ {
			// Signed mode numbers.
			mx, my := jx, jy
			if mx > n/2 {
				mx -= n
			}
			if my > n/2 {
				my -= n
			}
			if mx == 0 && my == 0 {
				continue // mean removed
			}
			ell := 2 * math.Pi * math.Sqrt(float64(mx*mx+my*my)) / lrad
			cl := cOf(ell)
			sigma := math.Sqrt(cl) / lrad
			grid[jy*n+jx] = complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	if err := fourier.FFT2D(grid, n); err != nil {
		return nil, err
	}
	mp := &Map{NX: n, NY: n, Pix: make([][]float64, n),
		Desc: fmt.Sprintf("flat patch %gx%g deg, %d px", sizeDeg, sizeDeg, n)}
	t0uK := spec.TCMB * 1e6
	// Real part of a complex Gaussian field with doubled variance is the
	// target real field (divide by sqrt(2)).
	norm := t0uK / math.Sqrt2
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			row[i] = real(grid[j*n+i]) * norm
		}
		mp.Pix[j] = row
	}
	return mp, nil
}

// TheoryRMS returns the expected map rms in microkelvin implied by the
// spectrum between lmin and lmax: sigma^2 = sum (2l+1) C_l / 4pi.
func TheoryRMS(spec *Spectrum, lmin, lmax int) (float64, error) {
	cOf, err := spec.interpolator()
	if err != nil {
		return 0, err
	}
	var sum float64
	for l := lmin; l <= lmax; l++ {
		sum += (2.0*float64(l) + 1.0) * cOf(float64(l)) / (4.0 * math.Pi)
	}
	return spec.TCMB * 1e6 * math.Sqrt(sum), nil
}
