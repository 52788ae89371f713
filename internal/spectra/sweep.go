// Package spectra assembles the paper's science outputs from per-k
// evolutions: the CMB anisotropy power spectrum C_l (Figure 2), the matter
// transfer functions and power spectrum, the COBE Q_rms-PS normalization,
// and a CMBFAST-style line-of-sight comparator (the "future work" check on
// the brute-force hierarchy method).
//
// The brute-force method is LINGER's: evolve the full moment hierarchy for
// every k to the present and read Theta_l(k, tau_0) directly off the state,
// with no free-streaming approximation, then quadrature over k. The paper's
// production runs used up to 10000 moments and 5000 wavenumbers; the same
// code paths here run at configurable resolution.
package spectra

import (
	"context"
	"fmt"
	"math"

	"plinger/internal/core"
	"plinger/internal/dispatch"
	"plinger/internal/obs"
)

// Sweep holds the results of evolving a set of k modes.
type Sweep struct {
	KValues []float64
	Results []*core.Result
	// Tau0 is the conformal age used for the sweep.
	Tau0 float64

	// plan is set instead of Results on a RefineK sweep: its modes are
	// evaluated on demand (see Sweep.mode).
	plan *refinePlan
}

// ClGrid builds the uniform wavenumber grid for a C_l computation up to
// multipole lmaxCl: brute-force read-off needs k up to about
// (lmaxCl + buffer)/tau_0, and spacing fine enough to resolve the
// oscillations of Theta_l(k) (period ~ pi/tau_0).
func ClGrid(lmaxCl int, tau0 float64, nk int) []float64 {
	kmin := 0.3 / tau0
	kmax := (float64(lmaxCl) + 200.0) / tau0
	ks := make([]float64, nk)
	for i := range ks {
		ks[i] = kmin + (kmax-kmin)*float64(i)/float64(nk-1)
	}
	return ks
}

// LogGrid builds a logarithmic k grid (for transfer functions).
func LogGrid(kmin, kmax float64, nk int) []float64 {
	ks := make([]float64, nk)
	for i := range ks {
		f := float64(i) / float64(nk-1)
		ks[i] = kmin * math.Pow(kmax/kmin, f)
	}
	return ks
}

// RunSweep evolves every k in ks with the given template parameters on the
// shared-memory pool dispatcher (the analogue of the Cray Autotasking
// parallelism of Section 3; message-passing runs go through
// dispatch.MP instead). If adaptLMax is true the hierarchy cutoff is
// reduced per k via dispatch.PerKLMax. For dispatcher choice and run telemetry use
// RunSweepWith.
func RunSweep(mdl *core.Model, mode core.Params, ks []float64, workers int, adaptLMax bool) (*Sweep, error) {
	sw, _, err := RunSweepWith(&dispatch.Pool{
		Model: mdl, Workers: workers, AdaptLMax: adaptLMax,
	}, ks, mode)
	return sw, err
}

// RunSweepWith evolves the grid on any dispatcher and wraps the results for
// science post-processing, returning the run telemetry alongside.
func RunSweepWith(d dispatch.Dispatcher, ks []float64, mode core.Params) (*Sweep, *dispatch.RunStats, error) {
	return RunSweepTraced(nil, d, ks, mode)
}

// RunSweepTraced is RunSweepWith with a sweep trace attached: the trace rides
// down to the dispatcher through the run context (obs.TraceFrom), so the
// backends record their eval-table and mode-evolution phases as spans. A nil
// trace is the no-op sink and makes this identical to RunSweepWith.
func RunSweepTraced(tr *obs.Trace, d dispatch.Dispatcher, ks []float64, mode core.Params) (*Sweep, *dispatch.RunStats, error) {
	dsw, st, err := d.Run(obs.ContextWithTrace(context.Background(), tr), ks, mode)
	if err != nil {
		return nil, nil, err
	}
	sw, err := FromResults(dsw.KValues, dsw.Results, dsw.Tau0)
	if err != nil {
		return nil, nil, err
	}
	return sw, st, nil
}

// FromResults builds a Sweep from externally computed results (e.g. a
// PLINGER parallel run).
func FromResults(ks []float64, res []*core.Result, tau0 float64) (*Sweep, error) {
	if len(ks) != len(res) {
		return nil, fmt.Errorf("spectra: %d wavenumbers but %d results", len(ks), len(res))
	}
	for i, r := range res {
		if r == nil {
			return nil, fmt.Errorf("spectra: missing result for k=%g", ks[i])
		}
	}
	return &Sweep{KValues: append([]float64(nil), ks...), Results: res, Tau0: tau0}, nil
}
