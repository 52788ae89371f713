package spectra

import (
	"fmt"
	"math"
)

// TransferFunction is the normalized matter transfer function T(k) with
// T -> 1 as k -> 0, plus the raw per-k density contrasts.
type TransferFunction struct {
	K      []float64
	T      []float64
	DeltaC []float64
	DeltaB []float64
}

// MatterTransfer builds T(k) from a (log-spaced) sweep. The density used is
// the mass-weighted CDM+baryon contrast at the final time; the k->0
// normalization divides out the k^2 growth of the synchronous-gauge
// contrast using the smallest k in the sweep.
func (s *Sweep) MatterTransfer(omegaC, omegaB float64) (*TransferFunction, error) {
	n := len(s.KValues)
	if n < 2 {
		return nil, fmt.Errorf("spectra: transfer needs at least 2 wavenumbers")
	}
	if s.plan != nil {
		return nil, errReadOff
	}
	tf := &TransferFunction{
		K:      append([]float64(nil), s.KValues...),
		T:      make([]float64, n),
		DeltaC: make([]float64, n),
		DeltaB: make([]float64, n),
	}
	wc := omegaC / (omegaC + omegaB)
	wb := omegaB / (omegaC + omegaB)
	ref := 0.0
	for i := 0; i < n; i++ {
		r := s.Results[i]
		tf.DeltaC[i] = r.DeltaC
		tf.DeltaB[i] = r.DeltaB
		dm := wc*r.DeltaC + wb*r.DeltaB
		scaled := dm / (s.KValues[i] * s.KValues[i])
		if i == 0 {
			ref = scaled
		}
		tf.T[i] = scaled / ref
	}
	return tf, nil
}

// PowerSpectrum evaluates the linear matter power spectrum
// P(k) = (2 pi^2/k^3) P_C(k) |delta_m(k)|^2 on the sweep grid, in Mpc^3,
// per unit primordial amplitude (use the COBE scale from NormalizeCOBE to
// set Amp).
func (s *Sweep) PowerSpectrum(prim Primordial, omegaC, omegaB float64) ([]float64, error) {
	n := len(s.KValues)
	if n < 2 {
		return nil, fmt.Errorf("spectra: power spectrum needs at least 2 wavenumbers")
	}
	if s.plan != nil {
		return nil, errReadOff
	}
	wc := omegaC / (omegaC + omegaB)
	wb := omegaB / (omegaC + omegaB)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		k := s.KValues[i]
		dm := wc*s.Results[i].DeltaC + wb*s.Results[i].DeltaB
		out[i] = 2.0 * math.Pi * math.Pi / (k * k * k) * prim.At(k) * dm * dm
	}
	return out, nil
}

// Sigma8 computes the rms mass fluctuation in spheres of radius 8/h Mpc
// from a power spectrum sampled on the sweep grid:
//
//	sigma_R^2 = Integral dlnk  k^3 P(k)/(2 pi^2) W^2(kR),
//	W(x) = 3 (sin x - x cos x)/x^3.
func (s *Sweep) Sigma8(pk []float64, h float64) (float64, error) {
	if len(pk) != len(s.KValues) {
		return 0, fmt.Errorf("spectra: power spectrum length %d != grid %d", len(pk), len(s.KValues))
	}
	r := 8.0 / h
	var sum float64
	for i, k := range s.KValues {
		x := k * r
		var w float64
		if x < 1e-3 {
			w = 1.0 - x*x/10.0
		} else {
			w = 3.0 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
		}
		integrand := k * k * k * pk[i] / (2.0 * math.Pi * math.Pi) * w * w
		sum += trapWeight(s.KValues, i) * integrand / k // dlnk = dk/k
	}
	if sum < 0 {
		return 0, fmt.Errorf("spectra: negative sigma8^2 = %g", sum)
	}
	return math.Sqrt(sum), nil
}
