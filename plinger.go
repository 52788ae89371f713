// Package plinger is a Go reproduction of LINGER/PLINGER, the serial and
// parallel linear general-relativity codes of Bode & Bertschinger
// (Supercomputing '95): it integrates the coupled, linearized Einstein,
// Boltzmann and fluid equations that link the primeval fluctuations of the
// early universe to the cosmic microwave background anisotropies and the
// linear matter power spectrum observable today.
//
// The package exposes the high-level workflow of the paper:
//
//	cfg := plinger.SCDM()                  // standard Cold Dark Matter
//	m, err := plinger.New(cfg)             // background + thermodynamics
//	res, err := m.EvolveMode(plinger.ModeOptions{K: 0.05})
//	spec, err := m.ComputeSpectrum(plinger.SpectrumOptions{LMaxCl: 300})
//	spec.NormalizeCOBE(18)                 // Figure 2 normalization
//
// and the master/worker parallel decomposition over independent k modes:
//
//	run, err := m.RunParallel(plinger.ParallelOptions{Workers: 8, ...})
//
// The heavy lifting lives in the internal packages (core, cosmology,
// recomb, thermo, spectra, dispatch, mp, farm, cluster, fault, obs, sky,
// serve); this facade re-exposes the stable subset an application needs.
// All parallel execution — shared-memory pool or master/worker message
// passing, in process or over a worker farm — routes through the dispatch
// subsystem. Model is safe for concurrent use (see its doc comment for the
// exact contract), which the serving daemon cmd/plingerd builds on.
// Command-line tools under cmd/ and runnable examples under examples/
// exercise every part of it.
package plinger

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/dispatch"
	"plinger/internal/expdata"
	"plinger/internal/obs"
	"plinger/internal/sky"
	"plinger/internal/spectra"
)

// Trace is a sweep trace: a per-request recorder of named phase spans
// (evolve, source spline, projection, ...). Attach one via
// SpectrumOptions.Trace or MatterPowerOptions.Trace; a nil trace is the
// no-op sink, so instrumentation costs nothing when tracing is off. The
// serving daemon creates one per cold request and exposes recent traces at
// /v1/trace.
type Trace = obs.Trace

// NewTrace starts a trace; label names the request kind (e.g. "cl").
func NewTrace(label string) *Trace { return obs.NewTrace(label) }

// Config selects the cosmological model. It is the model's own parameter
// set, so the facade, the farm's wire and the built model carry one type:
// H (little h), the density parameters OmegaC, OmegaB and OmegaLambda,
// TCMB (kelvin), the helium fraction YHe, NNuMassless massless neutrino
// species and NNuMassive massive ones of mass MNuEV (eV), the primordial
// SpectralIndex, and Flatten, which absorbs any curvature into OmegaC
// (required for massive neutrinos, whose density depends on the momentum
// integrals).
type Config = cosmology.Params

// SCDM returns the paper's standard Cold Dark Matter model
// (Omega = 1, h = 0.5, Omega_b = 0.05, n = 1).
func SCDM() Config { return cosmology.SCDM() }

// MDM returns the mixed dark matter variant with one massive neutrino,
// flattened.
func MDM(massEV float64) Config { return cosmology.MDM(massEV) }

// Gauge selects the perturbation gauge.
type Gauge string

const (
	// Synchronous is the primary gauge of the original LINGER.
	Synchronous Gauge = "synchronous"
	// ConformalNewtonian is the longitudinal gauge.
	ConformalNewtonian Gauge = "newtonian"
)

func (g Gauge) internal() (core.Gauge, error) {
	switch g {
	case Synchronous, "":
		return core.Synchronous, nil
	case ConformalNewtonian:
		return core.ConformalNewtonian, nil
	default:
		return 0, fmt.Errorf("plinger: unknown gauge %q", string(g))
	}
}

// Model holds the precomputed background cosmology and thermodynamic
// history.
//
// Concurrency contract: a Model is immutable after New, and every compute
// method — EvolveMode, ComputeSpectrum, MatterPower, RunParallel — may be
// called concurrently from any number of goroutines. Sweep workers keep
// their per-mode integration state in worker-owned arenas inside the
// dispatch subsystem (never shared across goroutines); the shared
// substrate (background and thermodynamic spline tables, the process-wide
// bounded spherical-Bessel kernel cache) is either read-only or
// internally synchronized. The only configuration call excluded from the
// contract is Attach, which must not race with in-flight compute calls.
// Results are deterministic: concurrent and sequential calls with equal
// options return bitwise-equal spectra (the dispatch subsystem's
// determinism contract).
type Model struct {
	prim spectra.Primordial
	core *core.Model
	// exec, when non-nil, runs every default-transport sweep (see Attach).
	exec dispatch.Executor
}

// New builds a model: Friedmann background (with massive-neutrino momentum
// integrals when requested), Saha+Peebles recombination, Thomson opacity
// and visibility tables.
func New(cfg Config) (*Model, error) {
	cm, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.SpectralIndex
	if n == 0 {
		n = 1
	}
	return &Model{prim: spectra.DefaultPrimordial(n), core: cm}, nil
}

// Attach routes every later default-transport sweep ("" or "pool") through
// e, a long-lived executor that serves any model: a dispatch.SharedPool (a
// process pays the pool start-up once, and concurrent sweeps share its
// workers) or a farm.Supervisor (a plingerw fleet, with the fault-tolerant
// master armed on every run). nil detaches, reverting to a pool started
// per call. The Model never closes e. While e is attached the per-call
// Workers option is ignored; the brute method's per-k hierarchy cutoff
// still applies, and results are unchanged (the dispatch determinism
// contract). Message-passing transports are unaffected. Call it before the
// Model is shared between goroutines.
func (m *Model) Attach(e dispatch.Executor) { m.exec = e }

// attachedSweep binds one sweep's model and cutoff policy to the attached
// executor, as the Dispatcher the spectra sweeps take.
type attachedSweep struct {
	exec  dispatch.Executor
	model *core.Model
	adapt bool
}

func (d *attachedSweep) Run(ctx context.Context, ks []float64, mode core.Params) (*dispatch.Sweep, *dispatch.RunStats, error) {
	return d.exec.Sweep(ctx, d.model, ks, mode, d.adapt)
}

// Tau0 returns the conformal age of the model in Mpc.
func (m *Model) Tau0() float64 { return m.core.BG.Tau0() }

// TauRecombination returns the conformal time of peak visibility (Mpc).
func (m *Model) TauRecombination() float64 { return m.core.TH.TauRec() }

// ModeOptions configures the evolution of one Fourier mode.
type ModeOptions struct {
	// K is the comoving wavenumber in Mpc^-1.
	K float64
	// LMax is the photon hierarchy cutoff (default 50).
	LMax int
	// Gauge selects synchronous (default) or conformal Newtonian.
	Gauge Gauge
	// RTol is the integrator's relative tolerance (0: the default 1e-6);
	// it must lie below 0.1, where the evolution stops being meaningful.
	RTol float64
	// KeepSources records line-of-sight sources at every step.
	KeepSources bool
	// TauEnd stops the evolution early (default: the present).
	TauEnd float64
	// FastEvolve runs the fast evolution engine: the moment hierarchies
	// start small and grow with k*tau, the background and thermodynamics
	// come from flattened per-model tables, and the integrator uses PI
	// step control. Same accuracy contract as SpectrumOptions.FastEvolve.
	// A mode released from tight coupling before the visibility window
	// opens spends the time until then in the slip regime (see
	// ModeResult.TauSlip); with KeepSources in the conformal Newtonian
	// gauge the run ends in the streaming regime (see
	// ModeResult.TauStream).
	FastEvolve bool
}

func (o ModeOptions) internal() (core.Params, error) {
	g, err := o.Gauge.internal()
	if err != nil {
		return core.Params{}, err
	}
	if err := checkK("K", o.K); err != nil {
		return core.Params{}, err
	}
	if o.LMax < 0 {
		return core.Params{}, fmt.Errorf("plinger: LMax = %d is negative (0 selects the default)", o.LMax)
	}
	if !(o.RTol >= 0 && o.RTol < 0.1) {
		return core.Params{}, fmt.Errorf("plinger: RTol = %g is outside [0, 0.1) (0 selects the default)", o.RTol)
	}
	if !(o.TauEnd >= 0) || math.IsInf(o.TauEnd, 0) {
		return core.Params{}, fmt.Errorf("plinger: TauEnd = %g is negative or not finite (0 selects the present)", o.TauEnd)
	}
	lmax := o.LMax
	if lmax == 0 {
		lmax = 50
	}
	return core.Params{
		K: o.K, LMax: lmax, Gauge: g, RTol: o.RTol,
		KeepSources: o.KeepSources, TauEnd: o.TauEnd,
		FastEvolve: o.FastEvolve,
	}, nil
}

// checkK refuses a wavenumber no mode can start from, naming the field.
func checkK(field string, k float64) error {
	if k > 0 && !math.IsInf(k, 1) {
		return nil
	}
	return fmt.Errorf("plinger: %s = %g is not a positive finite wavenumber", field, k)
}

// ModeResult is the outcome of evolving one mode: the multipole transfer
// functions and fluid perturbations at the final time.
type ModeResult struct {
	K      float64
	Tau, A float64
	// ThetaL and ThetaPL are the temperature and polarization multipole
	// transfer functions Theta_l = F_l/4 per unit primordial amplitude.
	ThetaL, ThetaPL []float64
	// Density contrasts and velocities.
	DeltaC, DeltaB, DeltaG, DeltaNu, DeltaHNu float64
	ThetaB                                    float64
	// Metric potentials (gauge-dependent; Phi/Psi for Newtonian runs,
	// Eta/HDot for synchronous).
	Phi, Psi, Eta, HDot float64
	// ConstraintResidual is the worst relative violation of the unused
	// Einstein equation — the accuracy monitor.
	ConstraintResidual float64
	// Steps and Evals describe the integrator work; Flops applies the
	// operation-count model; Seconds is the wallclock cost.
	Steps, Evals int
	Flops        float64
	Seconds      float64
	// TauSlip is the conformal time at which a FastEvolve run left the
	// slip regime (zero: it never entered it — every exact-engine run, and
	// modes whose tight coupling lasts until the visibility window opens).
	// Until then the baryon-photon momentum exchange was the second-order
	// tight-coupling value, not read off the evolved velocities, although
	// the photon hierarchies had been released.
	TauSlip float64
	// TauStream is the conformal time from which a FastEvolve KeepSources
	// run in the conformal Newtonian gauge carried no radiation moments
	// any more (zero: it never stopped). The state reported above then
	// holds the free-streaming closure, not evolved moments: ThetaL[0] =
	// -Phi, DeltaG = DeltaNu = -4 Phi, every higher multipole zero.
	TauStream float64
}

func wrapResult(r *core.Result) *ModeResult {
	return &ModeResult{
		K: r.K, Tau: r.Tau, A: r.A,
		ThetaL: r.ThetaL, ThetaPL: r.ThetaPL,
		DeltaC: r.DeltaC, DeltaB: r.DeltaB, DeltaG: r.DeltaG,
		DeltaNu: r.DeltaNu, DeltaHNu: r.DeltaHNu, ThetaB: r.ThetaB,
		Phi: r.Phi, Psi: r.Psi, Eta: r.Eta, HDot: r.HDot,
		ConstraintResidual: r.MaxConstraintResidual,
		Steps:              r.Stats.Steps, Evals: r.Stats.Evals,
		Flops: r.Flops, Seconds: r.Seconds,
		TauSlip: r.TauSlip, TauStream: r.TauStream,
	}
}

// EvolveMode integrates one k mode from the early radiation era to the
// present (the serial LINGER computation for a single wavenumber).
func (m *Model) EvolveMode(o ModeOptions) (*ModeResult, error) {
	p, err := o.internal()
	if err != nil {
		return nil, err
	}
	if p.FastEvolve {
		// Build the shared flattened tables in parallel on first use.
		m.core.EnsureEvalTables(dispatch.ParallelFor)
	}
	r, err := m.core.Evolve(p)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// Spectrum is an angular power spectrum (thermodynamic temperature units
// after COBE normalization).
type Spectrum struct {
	L  []int
	Cl []float64

	inner *spectra.ClSpectrum
}

// BandPower returns dT_l = T0 sqrt(l(l+1)C_l/2pi) in microkelvin.
func (s *Spectrum) BandPower(i int) float64 { return s.inner.BandPower(i) }

// NormalizeCOBE rescales to the COBE Q_rms-PS quadrupole (microkelvin),
// returning the applied primordial amplitude.
func (s *Spectrum) NormalizeCOBE(qMicroK float64) (float64, error) {
	sc, err := s.inner.NormalizeCOBE(qMicroK)
	if err != nil {
		return 0, err
	}
	copy(s.Cl, s.inner.Cl)
	return sc, nil
}

// SpectrumOptions configures a C_l computation.
type SpectrumOptions struct {
	// LMaxCl is the largest multipole wanted (default 300).
	LMaxCl int
	// Ls lists the multipoles to evaluate (default: log-spaced 2..LMaxCl).
	Ls []int
	// NK is the number of points of the k quadrature grid (default
	// LMaxCl + 200).
	NK int
	// Workers bounds the shared-memory parallelism (default GOMAXPROCS).
	Workers int
	// Method selects "los" (fast line-of-sight, default) or "brute"
	// (the paper's full-hierarchy read-off).
	Method string
	// LMax is the hierarchy cutoff: default 24 for los; for brute the
	// per-k cutoff adapts up to max(1.5 k tau0)+60.
	LMax int
	// Polarization computes the polarization spectrum from the G_l
	// hierarchy instead of temperature (brute method only; the paper's
	// Thomson treatment includes "two photon polarizations").
	Polarization bool
	// Transport selects the execution backend: "" or "pool" runs the
	// shared-memory worker pool (the Model's attached executor, if any;
	// see Attach); "chan", "fifo" or "tcp" runs a full PLINGER
	// master/worker decomposition over that mp transport. Every backend
	// hands the wavenumbers out largest-first, the paper's policy, and the
	// spectrum is identical in every case.
	Transport string
	// FastLOS switches the los method to the table-driven projection:
	// spherical Bessel kernels from the process-shared spline tables
	// (built in parallel and cached across calls), only the requested
	// multipoles evaluated, and each multipole's time integral truncated
	// at the kernel turning point. With every fast switch on, the benchmark
	// measures C_l 2.4e-3 (LMaxCl 150 / NK 130) and 6.4e-3 (1000 / 1200)
	// from the exact path on the same k grid (ROADMAP.md, item 1). Default
	// off: the exact reference path runs.
	FastLOS bool
	// KRefine > 1 evolves the Boltzmann ODEs only on a coarse wavenumber
	// grid of ~NK/KRefine modes and cubic-splines the recorded sources in
	// k onto the full NK-point quadrature grid (the CMBFAST trick; the
	// sources vary slowly in k even though Theta_l(k) oscillates).
	// KRefine 6 cuts the evolution cost ~6x at < 1e-3 relative error in
	// C_l. 0 or 1 disables refinement. los method only.
	KRefine int
	// FastEvolve switches the per-mode Einstein-Boltzmann integration to
	// the fast evolution engine: the photon/polarization/neutrino moment
	// hierarchies start at a few moments and grow with k*tau, shrink to six
	// once radiation is dynamically negligible and are dropped from the
	// state for the free-streaming closure once k*tau >= 45 on top of that
	// (most of a paper-scale sweep's steps went into following their
	// oscillation, which the sources cannot see); from the tight-coupling
	// release until the visibility window opens the baryon-photon momentum
	// exchange keeps its second-order tight-coupling value (the slip
	// relaxes ~18x faster than the opacity the release waits for, and the
	// explicit integrator otherwise sits on that rate's stability limit);
	// the background and thermodynamic history come from flattened
	// per-model lookup tables, and the integrator runs PI step-size
	// control. The full fast path it is part of measures 2.4e-3 (150 / 130)
	// and 6.4e-3 (1000 / 1200) from the exact path on the same k grid (see
	// FastLOS). Off by default: the exact path remains the reference
	// implementation. los method only.
	FastEvolve bool
	// LSpline projects the line-of-sight integral only on a coarse
	// multipole ladder that resolves the acoustic oscillation of C_l
	// (densified around the peaks) and cubic-splines l(l+1)C_l onto the
	// requested multipoles, shrinking the projection work and the Bessel
	// table footprint by the same factor. SafeLSpline degrades the run to
	// exact projection whenever the request is too small or too coarse for
	// the spline to pay for itself or to hold the engine's 1e-3 relative
	// C_l budget. Requires FastLOS; los method only; off by default.
	LSpline bool
	// KBatch > 1 evolves blocks of KBatch neighbouring wavenumbers in
	// lockstep per worker, sharing one background/thermodynamics lookup
	// per right-hand-side evaluation across the block. The blocks couple
	// the members through the shared step controller, so results shift at
	// the integrator-tolerance level (~1e-4 of the multipole scale), well
	// inside the 1e-3 budget; 0 or 1 makes every block one wavenumber
	// through the same driver. los method only.
	KBatch int
	// Trace, when non-nil, records the computation's phases (evolve,
	// source_spline, project, lspline, bessel_tables plus the dispatch-level
	// eval_tables and modes) as spans. Nil costs nothing.
	Trace *Trace
}

// maxKBatch caps the lockstep batch width: beyond this the members' k
// ranges are too wide to share a tight-coupling window efficiently and
// the batch state stops fitting hot caches.
const maxKBatch = 32

// defaultLMaxCl is the LMaxCl a zero SpectrumOptions.LMaxCl selects.
const defaultLMaxCl = 300

// Validate reports the first option that would request a meaningless
// computation. Zero values always validate (they select documented
// defaults); genuinely bad values — negative sizes, grids too small for the
// quadrature, unknown method or transport names, inconsistent method
// combinations — return errors instead of being silently clamped.
// ComputeSpectrum calls it first, so callers only need it to fail early.
func (o SpectrumOptions) Validate() error {
	if o.LMaxCl < 0 {
		return fmt.Errorf("plinger: LMaxCl = %d is negative (0 selects the default)", o.LMaxCl)
	}
	if o.LMaxCl == 1 {
		return fmt.Errorf("plinger: LMaxCl = 1 is below the quadrupole (C_l starts at l = 2)")
	}
	if o.NK < 0 {
		return fmt.Errorf("plinger: NK = %d is negative (0 selects the default)", o.NK)
	}
	if o.NK > 0 && o.NK < 3 {
		return fmt.Errorf("plinger: NK = %d is too small: the k quadrature needs at least 3 points", o.NK)
	}
	if o.LMax < 0 {
		return fmt.Errorf("plinger: LMax = %d is negative (0 selects the default)", o.LMax)
	}
	if o.Workers < 0 {
		return fmt.Errorf("plinger: Workers = %d is negative (0 uses GOMAXPROCS)", o.Workers)
	}
	if o.KRefine < 0 {
		return fmt.Errorf("plinger: KRefine = %d is negative (0 or 1 disables refinement)", o.KRefine)
	}
	if o.KBatch < 0 {
		return fmt.Errorf("plinger: KBatch = %d is negative (0 or 1 disables batching)", o.KBatch)
	}
	if o.KBatch > maxKBatch {
		return fmt.Errorf("plinger: KBatch = %d exceeds the cap of %d modes per lockstep batch", o.KBatch, maxKBatch)
	}
	// The quadrature, the spline-in-l ladder and the Bessel tables all
	// assume a strictly increasing multipole request; a duplicate or
	// out-of-order entry is a caller bug, not a preference.
	for i, l := range o.Ls {
		if l < 2 {
			return fmt.Errorf("plinger: requested multipole l = %d (C_l starts at the quadrupole, l = 2)", l)
		}
		if i > 0 && l == o.Ls[i-1] {
			return fmt.Errorf("plinger: duplicate multipole l = %d in Ls", l)
		}
		if i > 0 && l < o.Ls[i-1] {
			return fmt.Errorf("plinger: Ls must be strictly increasing (l = %d after l = %d)", l, o.Ls[i-1])
		}
	}
	// The k quadrature only resolves multipoles up to LMaxCl (its default
	// when unset included), so larger requests would silently come back
	// wrong rather than slow.
	lmaxCl := o.LMaxCl
	if lmaxCl == 0 {
		lmaxCl = defaultLMaxCl
	}
	for _, l := range o.Ls {
		if l > lmaxCl {
			return fmt.Errorf("plinger: requested multipole l = %d exceeds LMaxCl = %d", l, lmaxCl)
		}
	}
	switch o.Method {
	case "", "los":
		if o.Polarization {
			return fmt.Errorf("plinger: polarization requires Method \"brute\"")
		}
		if o.LSpline && !o.FastLOS {
			return fmt.Errorf("plinger: LSpline requires FastLOS (it splines the table-driven projection)")
		}
	case "brute":
		if o.FastLOS {
			return fmt.Errorf("plinger: FastLOS applies to Method \"los\" only")
		}
		if o.KRefine > 1 {
			return fmt.Errorf("plinger: KRefine applies to Method \"los\" only")
		}
		if o.FastEvolve {
			return fmt.Errorf("plinger: FastEvolve applies to Method \"los\" only")
		}
		if o.LSpline {
			return fmt.Errorf("plinger: LSpline applies to Method \"los\" only")
		}
		if o.KBatch > 1 {
			return fmt.Errorf("plinger: KBatch applies to Method \"los\" only")
		}
	default:
		return fmt.Errorf("plinger: unknown method %q (want los or brute)", o.Method)
	}
	switch o.Transport {
	case "", "pool", "chan", "fifo", "tcp":
	default:
		return fmt.Errorf("plinger: unknown transport %q (want pool, chan, fifo or tcp)", o.Transport)
	}
	return nil
}

// kRange resolves the k grid's bounds, the one place their defaults live:
// an unset KMin is 2e-4 and an unset KMax 0.5.
func (o MatterPowerOptions) kRange() (kmin, kmax float64) {
	return cmp.Or(o.KMin, 2e-4), cmp.Or(o.KMax, 0.5)
}

// Validate is the MatterPowerOptions analogue of SpectrumOptions.Validate:
// zero values select defaults, bad values return errors. MatterPower calls
// it first.
func (o MatterPowerOptions) Validate() error {
	if !(o.KMin >= 0) || math.IsInf(o.KMin, 0) {
		return fmt.Errorf("plinger: KMin = %g is negative or not finite (0 selects the default)", o.KMin)
	}
	if !(o.KMax >= 0) || math.IsInf(o.KMax, 0) {
		return fmt.Errorf("plinger: KMax = %g is negative or not finite (0 selects the default)", o.KMax)
	}
	if kmin, kmax := o.kRange(); kmax <= kmin {
		return fmt.Errorf("plinger: KMax = %g does not exceed KMin = %g", kmax, kmin)
	}
	if o.NK < 0 {
		return fmt.Errorf("plinger: NK = %d is negative (0 selects the default)", o.NK)
	}
	if o.NK > 0 && o.NK < 3 {
		return fmt.Errorf("plinger: NK = %d is too small: the k grid needs at least 3 points", o.NK)
	}
	if o.Workers < 0 {
		return fmt.Errorf("plinger: Workers = %d is negative (0 uses GOMAXPROCS)", o.Workers)
	}
	if !(o.Amp >= 0) || math.IsInf(o.Amp, 0) {
		return fmt.Errorf("plinger: Amp = %g is negative or not finite (0 means unit amplitude)", o.Amp)
	}
	return nil
}

// newDispatcher builds the execution backend for a sweep, handing the
// wavenumbers out largest-first. The returned cleanup must be called after
// the run.
func (m *Model) newDispatcher(transport string, workers int, adaptLMax bool) (dispatch.Dispatcher, func(), error) {
	switch transport {
	case "", "pool":
		if m.exec != nil {
			return &attachedSweep{exec: m.exec, model: m.core, adapt: adaptLMax}, func() {}, nil
		}
		return &dispatch.Pool{Model: m.core, Workers: workers, AdaptLMax: adaptLMax}, func() {}, nil
	default:
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		d, cleanup, err := dispatch.NewMP(m.core, transport, workers)
		if err != nil {
			return nil, nil, err
		}
		d.AdaptLMax = adaptLMax
		return d, cleanup, nil
	}
}

// projection names the step that turns a sweep into C_l.
type projection int

const (
	projectBrute        projection = iota // read C_l off the final temperature moments
	projectPolarization                   // the same off the polarization moments
	projectLOS                            // exact line-of-sight integral
	projectLOSFast                        // table-driven line-of-sight integral over lsProj
)

// spectrumPlan is every decision a C_l request resolves to before any mode
// is evolved. Nothing else re-derives them: ComputeSpectrum executes it.
type spectrumPlan struct {
	ls           []int     // requested multipoles
	lsProj       []int     // multipoles projected; shorter than ls when the l spline runs
	ks           []float64 // quadrature grid
	ksRun        []float64 // grid evolved; shorter than ks when the sources are splined in k
	kRefine      int       // refinement factor kept (1: none)
	tau0, tauRec float64
	mode         core.Params
	adaptLMax    bool // the dispatcher trims the hierarchy per wavenumber
	project      projection
}

const planDowngradesHelp = "C_l requests whose KRefine or LSpline the spectrum plan clamped or dropped."

// The plan counts each downgrade, so a silently cheaper answer shows.
var (
	downgradeKRefine = obs.Default.Counter("plinger_plan_downgrades_total", `knob="krefine"`, planDowngradesHelp)
	downgradeLSpline = obs.Default.Counter("plinger_plan_downgrades_total", `knob="lspline"`, planDowngradesHelp)
)

// plan resolves validated options into a spectrumPlan.
func (m *Model) plan(o SpectrumOptions) spectrumPlan {
	lmaxCl := o.LMaxCl
	if lmaxCl == 0 {
		lmaxCl = defaultLMaxCl
	}
	nk := o.NK
	if nk == 0 {
		nk = lmaxCl + 200
	}
	p := spectrumPlan{ls: o.Ls, kRefine: 1, tau0: m.Tau0(), tauRec: m.core.TH.TauRec()}
	if len(p.ls) == 0 {
		p.ls = spectra.DefaultLs(lmaxCl)
	}
	p.ks = spectra.ClGrid(lmaxCl, p.tau0, nk)
	p.ksRun, p.lsProj = p.ks, p.ls
	kmax := p.ks[len(p.ks)-1]
	lmax := o.LMax
	if o.Method == "brute" {
		if lmax == 0 {
			lmax = int(1.5*kmax*p.tau0) + 60
		}
		p.mode = core.Params{LMax: lmax, Gauge: core.Synchronous}
		p.adaptLMax = true
		p.project = projectBrute
		if o.Polarization {
			p.project = projectPolarization
		}
		return p
	}
	if lmax == 0 {
		lmax = 24
	}
	p.mode = core.Params{
		LMax: lmax, Gauge: core.ConformalNewtonian, KeepSources: true,
		FastEvolve: o.FastEvolve, KBatch: o.KBatch,
	}
	// Coarse-to-fine: evolve ~NK/KRefine wavenumbers (plus a cheap
	// log-spaced head) and spline the sources in k onto ks afterwards.
	// SafeKRefine caps the factor where the coarse grid would stop resolving
	// the sources' acoustic oscillation; a coarse grid that is not smaller
	// than ks cannot pay for itself, and the plain sweep runs.
	if k := spectra.SafeKRefine(o.KRefine, nk, p.ks[0], kmax, p.tauRec); k > 1 {
		if coarse := spectra.RefineCoarseGrid(p.ks, k); len(coarse) < nk {
			p.ksRun, p.kRefine = coarse, k
		}
	}
	if o.KRefine > p.kRefine {
		downgradeKRefine.Inc()
	}
	// Spline-in-l: project a coarse ladder and spline l(l+1)C_l onto ls,
	// unless SafeLSpline finds the ladder cannot pay for itself or hold the
	// 1e-3 budget.
	if o.LSpline {
		if coarse := spectra.SafeLSpline(p.ls, p.tauRec, p.tau0); coarse != nil {
			p.lsProj = coarse
		} else {
			downgradeLSpline.Inc()
		}
	}
	p.project = projectLOS
	if o.FastLOS {
		p.project = projectLOSFast
	}
	return p
}

// ComputeSpectrum runs the k sweep and assembles C_l. It validates o first
// (see SpectrumOptions.Validate) and is safe for concurrent callers.
func (m *Model) ComputeSpectrum(o SpectrumOptions) (*Spectrum, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p := m.plan(o)
	d, cleanup, err := m.newDispatcher(o.Transport, o.Workers, p.adaptLMax)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	tr := o.Trace
	besselWait := func() {}
	if p.project == projectLOSFast {
		// Warm the shared Bessel table during the sweep.
		besselWait = dispatch.StartPrebuild(func() {
			sp := tr.Start("bessel_tables")
			spectra.PrewarmBesselTable(p.lsProj, p.ks[len(p.ks)-1], p.tau0)
			sp.End()
		})
		defer besselWait()
	}
	// The evolve span includes the prewarm wait, so a cold request's wall
	// time decomposes into the non-overlapping top-level spans evolve,
	// source_spline, project and lspline; the rest nest inside evolve.
	spEvolve := tr.Start("evolve")
	sw, _, err := spectra.RunSweepTraced(tr, d, p.ksRun, p.mode)
	besselWait()
	spEvolve.End()
	if err == nil && len(p.ksRun) < len(p.ks) {
		sp := tr.Start("source_spline")
		sw, err = sw.RefineK(len(p.ks), p.tauRec)
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	var cl *spectra.ClSpectrum
	sp := tr.Start("project")
	switch p.project {
	case projectBrute:
		cl, err = sw.Cl(p.ls, m.prim, m.core.BG.P.TCMB)
	case projectPolarization:
		cl, err = sw.ClPolarization(p.ls, m.prim, m.core.BG.P.TCMB)
	case projectLOS:
		cl, err = sw.ClLOS(p.ls, m.prim, m.core.BG.P.TCMB, p.tauRec)
	case projectLOSFast:
		cl, err = sw.ClLOSFast(p.lsProj, m.prim, m.core.BG.P.TCMB, p.tauRec)
	}
	sp.End()
	if err == nil && len(p.lsProj) < len(p.ls) {
		sp := tr.Start("lspline")
		cl, err = spectra.SplineCl(cl, p.ls)
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	return &Spectrum{L: cl.L, Cl: cl.Cl, inner: cl}, nil
}

// MatterPowerResult bundles the transfer function and power spectrum.
type MatterPowerResult struct {
	K      []float64
	T      []float64 // normalized transfer function
	P      []float64 // power spectrum, Mpc^3 (per primordial amplitude)
	Sigma8 float64
}

// MatterPowerOptions configures a matter power spectrum computation.
type MatterPowerOptions struct {
	// KMin and KMax bound the logarithmic k grid (defaults 2e-4, 0.5).
	KMin, KMax float64
	// NK is the number of grid points (default 40).
	NK int
	// Workers bounds the parallelism (default GOMAXPROCS).
	Workers int
	// Amp is the primordial amplitude, typically the value returned by
	// NormalizeCOBE (<= 0 means unit amplitude).
	Amp float64
	// Trace, when non-nil, records the computation's phases (evolve,
	// postprocess) as spans. Nil costs nothing.
	Trace *Trace
}

// MatterPower computes the matter transfer function, power spectrum and
// sigma_8 on a logarithmic k grid. It validates o first (see
// MatterPowerOptions.Validate) and is safe for concurrent callers.
func (m *Model) MatterPower(o MatterPowerOptions) (*MatterPowerResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.NK <= 0 {
		o.NK = 40
	}
	kmin, kmax := o.kRange()
	ks := spectra.LogGrid(kmin, kmax, o.NK)
	d, cleanup, err := m.newDispatcher("", o.Workers, false)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	tr := o.Trace
	spEvolve := tr.Start("evolve")
	sw, _, err := spectra.RunSweepTraced(tr, d, ks, core.Params{LMax: 24, Gauge: core.Synchronous})
	spEvolve.End()
	if err != nil {
		return nil, err
	}
	spPost := tr.Start("postprocess")
	defer spPost.End()
	// The background's parameters, not the requested ones: flattening
	// moves OmegaC.
	p := m.core.BG.P
	tf, err := sw.MatterTransfer(p.OmegaC, p.OmegaB)
	if err != nil {
		return nil, err
	}
	prim := m.prim
	if o.Amp > 0 {
		prim.Amp = o.Amp
	}
	pk, err := sw.PowerSpectrum(prim, p.OmegaC, p.OmegaB)
	if err != nil {
		return nil, err
	}
	s8, err := sw.Sigma8(pk, p.H)
	if err != nil {
		return nil, err
	}
	return &MatterPowerResult{K: tf.K, T: tf.T, P: pk, Sigma8: s8}, nil
}

// ParallelOptions configures a PLINGER master/worker run.
type ParallelOptions struct {
	// KValues are the wavenumbers to distribute.
	KValues []float64
	// Workers is the number of worker processes (the master is extra).
	Workers int
	// LMax, Gauge, RTol as in ModeOptions.
	LMax  int
	Gauge Gauge
	RTol  float64
	// Transport selects the mp transport: "chan" (default, in-process),
	// "fifo" (strict arrival-order, the MPL model) or "tcp" (loopback
	// connections from each worker to a listening master, PVM-style).
	Transport string
	// AdaptLMax reduces the hierarchy cutoff per wavenumber via the
	// paper's k tau_0 criterion, shrinking both CPU time and messages
	// for small k.
	AdaptLMax bool
	// ASCIIOut and BinaryOut receive the unit_1/unit_2 style outputs.
	ASCIIOut, BinaryOut io.Writer
}

// WorkerLoad is the per-worker share of a parallel run (Figure 1).
type WorkerLoad struct {
	Rank        int
	Modes       int
	BusySeconds float64
	Flops       float64
}

// ParallelRun is the master's collected output plus the run telemetry.
type ParallelRun struct {
	Results []*ModeResult
	// Backend names the dispatcher used (e.g. "mp/chan").
	Backend string
	// Wallclock and TotalCPU in seconds; Efficiency is the paper's
	// (total CPU)/(wallclock x workers); FlopRate in flop/s.
	Wallclock, TotalCPU, Efficiency, FlopRate float64
	// BytesMoved is the message payload volume.
	BytesMoved int64
	// Workers is the per-worker accounting, sorted by rank.
	Workers []WorkerLoad
}

// RunParallel executes the paper's Appendix A algorithm: a master and
// Workers worker goroutines exchanging tagged messages over the chosen
// transport, handing the wavenumbers out largest-first. Results are
// deterministic and independent of Workers and Transport.
func (m *Model) RunParallel(o ParallelOptions) (*ParallelRun, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if len(o.KValues) == 0 {
		return nil, fmt.Errorf("plinger: no wavenumbers")
	}
	for i, k := range o.KValues {
		if err := checkK(fmt.Sprintf("KValues[%d]", i), k); err != nil {
			return nil, err
		}
	}
	// The template mode's K is one of the grid's; the master sets it per
	// assignment.
	mode, err := ModeOptions{K: o.KValues[0], LMax: o.LMax, Gauge: o.Gauge, RTol: o.RTol}.internal()
	if err != nil {
		return nil, err
	}
	d, cleanup, err := dispatch.NewMP(m.core, o.Transport, o.Workers)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	d.AdaptLMax = o.AdaptLMax
	d.ASCIIOut, d.BinaryOut = o.ASCIIOut, o.BinaryOut
	sw, st, err := d.Run(context.Background(), o.KValues, mode)
	if err != nil {
		return nil, err
	}
	out := &ParallelRun{
		Backend:    st.Backend,
		Wallclock:  st.Wallclock,
		TotalCPU:   st.TotalCPU,
		Efficiency: st.Efficiency,
		FlopRate:   st.FlopRate,
		BytesMoved: st.BytesMoved,
	}
	for _, w := range st.Workers {
		out.Workers = append(out.Workers, WorkerLoad{
			Rank: w.Rank, Modes: w.Modes, BusySeconds: w.Seconds, Flops: w.Flops,
		})
	}
	for _, r := range sw.Results {
		out.Results = append(out.Results, wrapResult(r))
	}
	return out, nil
}

// SkyMap synthesizes a Gaussian temperature map from a spectrum: a full-sky
// COBE-like map when flat is false, or the paper's half-degree flat patch
// (Figure 3) when flat is true.
type SkyMapOptions struct {
	Flat bool
	// N is the pixel count (full sky: rows; flat: side, power of two).
	N int
	// SizeDeg is the flat patch side in degrees (default 32).
	SizeDeg float64
	// LMaxSynthesis caps the full-sky synthesis (default 60).
	LMaxSynthesis int
	Seed          int64
}

// SkyMapResult is a rendered map in microkelvin.
type SkyMapResult struct {
	Pix        [][]float64
	NX, NY     int
	Min, Max   float64
	RMS        float64
	Desc       string
	writeGuard *sky.Map
}

// WritePGM renders the map to an 8-bit PGM (scale <= 0 auto-scales).
func (r *SkyMapResult) WritePGM(w io.Writer, scale float64) error {
	return r.writeGuard.WritePGM(w, scale)
}

// MakeSkyMap realizes a map from the spectrum.
func MakeSkyMap(spec *Spectrum, tcmb float64, o SkyMapOptions) (*SkyMapResult, error) {
	in := &sky.Spectrum{L: spec.L, Cl: spec.Cl, TCMB: tcmb}
	var mp *sky.Map
	var err error
	if o.Flat {
		n := o.N
		if n == 0 {
			n = 128
		}
		size := o.SizeDeg
		if size == 0 {
			size = 32
		}
		mp, err = sky.FlatPatch(in, n, size, o.Seed)
	} else {
		n := o.N
		if n == 0 {
			n = 64
		}
		lmax := o.LMaxSynthesis
		if lmax == 0 {
			lmax = 60
		}
		mp, err = sky.FullSky(in, lmax, n, o.Seed)
	}
	if err != nil {
		return nil, err
	}
	mn, mx, rms := mp.Stats()
	return &SkyMapResult{
		Pix: mp.Pix, NX: mp.NX, NY: mp.NY,
		Min: mn, Max: mx, RMS: rms, Desc: mp.Desc, writeGuard: mp,
	}, nil
}

// BandPowerPoint is one experimental CMB measurement from the Figure 2
// compilation.
type BandPowerPoint struct {
	Experiment     string
	LEff           float64
	DT             float64 // microkelvin
	ErrUp, ErrDown float64
}

// ExperimentPoints returns the era's measured CMB band powers (the points
// of Figure 2).
func ExperimentPoints() []BandPowerPoint {
	var out []BandPowerPoint
	for _, p := range expdata.Points() {
		out = append(out, BandPowerPoint{
			Experiment: p.Experiment, LEff: p.LEff, DT: p.DT,
			ErrUp: p.ErrUp, ErrDown: p.ErrDown,
		})
	}
	return out
}
