// Package core implements the paper's central computation: for a single
// comoving wavenumber k it integrates the coupled, linearized Einstein,
// Boltzmann and fluid equations from deep in the radiation era to the
// present, following Ma & Bertschinger (1995), the companion paper of the
// SC'95 text. Photons carry a full temperature and polarization multipole
// hierarchy with Thomson scattering (including the angular and polarization
// dependence of the cross-section), massless neutrinos a collisionless
// hierarchy, and massive neutrinos the full momentum-dependent phase-space
// hierarchy with no free-streaming approximation. Baryons and cold dark
// matter evolve as fluids, with the baryons Thomson-coupled to the photons.
//
// Both gauges of the original LINGER code are provided: the synchronous
// gauge (h, eta) and the conformal Newtonian gauge (phi, psi). Temperature
// multipoles with l >= 2 are gauge-invariant, which the tests exploit as a
// strong cross-validation.
//
// Each mode is an independent initial-value problem, which is precisely the
// property the paper's master/worker parallelization exploits.
//
// On amd64 the free-streaming recurrences of the photon F and G and the
// neutrino hierarchies, l = 3 .. LMax-1, run as SSE2 assembly
// (stream_amd64.s). Each lane performs the same IEEE multiplies and
// subtracts, in the same order, as the Go loop it replaces (streamDampedGo,
// streamGo), and no fused multiply-add, so every mode is bit for bit the Go
// loops'. Other architectures run the Go loops, which their compilers may
// fuse (arm64 does), so the golden bits hold on amd64 only.
package core

import (
	"fmt"

	"plinger/internal/cosmology"
	"plinger/internal/ode"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

// Gauge selects the coordinate gauge of the perturbation equations.
type Gauge int

const (
	// Synchronous is the (h, eta) gauge of MB95 section 4 — the primary
	// gauge of the original LINGER code.
	Synchronous Gauge = iota
	// ConformalNewtonian is the (phi, psi) longitudinal gauge.
	ConformalNewtonian
)

// String implements fmt.Stringer.
func (g Gauge) String() string {
	switch g {
	case Synchronous:
		return "synchronous"
	case ConformalNewtonian:
		return "conformal-newtonian"
	default:
		return fmt.Sprintf("Gauge(%d)", int(g))
	}
}

// Params configures the evolution of one k mode.
type Params struct {
	// K is the comoving wavenumber in Mpc^-1.
	K float64
	// LMax is the photon and massless-neutrino hierarchy cutoff; moments
	// l = 0..LMax are carried. The paper's production runs use up to
	// 10000; reproduce at whatever scale the machine affords.
	LMax int
	// Gauge selects synchronous or conformal Newtonian equations.
	Gauge Gauge
	// RTol is the DVERK relative error tolerance (default 1e-6; the
	// absolute one is aTol).
	RTol float64
	// TauEnd is the final conformal time (default: today).
	TauEnd float64
	// KeepSources records the line-of-sight source samples at every
	// accepted step (used by the CMBFAST-style comparator and the psi
	// movie). It requires an integrator implementing ode.StepObserver.
	KeepSources bool
	// KBatch is the block size sweep dispatchers hand to EvolveBatchWith:
	// KBatch neighbouring k modes evolve in lockstep, amortizing the shared
	// background/thermodynamics lookups of every right-hand-side evaluation
	// across the block; <= 1 means blocks of one. It is dispatch-level
	// routing state: the evolution itself never reads it.
	KBatch int
	// FastEvolve enables the fast evolution engine: the photon,
	// polarization and massless-neutrino hierarchies start at a few
	// moments and grow with k*tau (moments are copied across each growth
	// event, newly activated ones seeded at zero, with the usual
	// last-moment free-streaming closure at the moving boundary); from the
	// tight-coupling release until the visibility window opens the
	// baryon-photon momentum exchange keeps its second-order tight-coupling
	// value, the slip relaxing (1+R) times faster than the opacity the
	// release waits for (see Result.TauSlip); a KeepSources run shrinks the
	// hierarchies to six moments once radiation is dynamically negligible
	// and, in the conformal Newtonian gauge, stops carrying them altogether
	// once k*tau >= 45 on top of that, closing the Einstein sums with the
	// free-streaming values (see Result.TauStream); the background and
	// thermodynamic history come from the model's flattened
	// uniform-in-ln-a tables instead of per-call spline searches; and the
	// integrator runs PI step-size control (the controller step is carried
	// across segment boundaries on every default-integrator run). Default
	// off: the exact path is the reference. The fast path tracks it to
	// well below the 1e-3 relative C_l engine budget (see the golden
	// tests).
	FastEvolve bool

	// Ablation switches for the fast engine, used by the property tests to
	// exercise one ingredient at a time (all false: the full fast engine).
	noGrowLMax bool // fixed full-size hierarchy from the start
	noTables   bool // exact spline lookups instead of flattened tables (whose slopes the slip regime needs: none either)
	noPI       bool // elementary step controller instead of PI
	noStream   bool // track the shrunk hierarchies to the end (no streaming switch)
	noSlip     bool // evolve the baryon-photon slip from the tight-coupling release on (no slip regime)

	// Numerical settings the tests vary (zero: the defaults).
	// lmaxNu is the massive-neutrino hierarchy cutoff (default 12).
	lmaxNu int
	// kTauStart sets the initial time through k*tau = kTauStart (default
	// 0.05); initial conditions are the adiabatic superhorizon series of
	// MB95 eq. (96)/(98), valid for k*tau << 1.
	kTauStart float64
	// tcaFactor is the dominance factor required of the opacity: tight
	// coupling holds while kappa-dot > tcaFactor * max(k, aH) (default 100).
	tcaFactor float64
	// noTCA turns off the first-order photon-baryon tight-coupling
	// approximation at early times. Without it the Thomson terms make the
	// system arbitrarily stiff as a -> 0.
	noTCA bool
	// integrator overrides the time integrator (default: DVERK).
	integrator ode.Integrator
}

// aTol is the DVERK absolute error tolerance.
const aTol = 1e-12

func (p *Params) setDefaults() {
	if p.LMax <= 2 {
		p.LMax = 8
	}
	if p.lmaxNu <= 2 {
		p.lmaxNu = 12
	}
	if p.RTol <= 0 {
		p.RTol = 1e-6
	}
	if p.kTauStart <= 0 {
		p.kTauStart = 0.05
	}
	if p.tcaFactor <= 0 {
		p.tcaFactor = 100.0
	}
}

// Sample is one recorded line-of-sight source point.
type Sample struct {
	Tau, A float64
	// Theta0 is the photon temperature monopole F_gamma0/4.
	Theta0 float64
	// Psi and Phi are the conformal Newtonian potentials (zero when the
	// run uses the synchronous gauge; Eta/HDot are then filled instead).
	Psi, Phi, PhiDot float64
	// Eta and HDot are the synchronous metric variables; EtaDot and Alpha
	// ((h-dot + 6 eta-dot)/2k^2, the gauge shift to conformal Newtonian)
	// accompany them.
	Eta, HDot, EtaDot, Alpha float64
	// VB is the baryon velocity theta_b / k.
	VB float64
	// Pi is the polarization source F_gamma2 + G_gamma0 + G_gamma2.
	Pi float64
	// Kdot is the Thomson opacity a n_e sigma_T, Kappa the optical depth
	// from Tau to today.
	Kdot, Kappa float64
	// DeltaC and DeltaB are the matter density contrasts.
	DeltaC, DeltaB float64
	// Residual is the relative Einstein-constraint violation at this step.
	Residual float64
}

// Result is the outcome of evolving one k mode — the payload the PLINGER
// worker ships back to the master.
type Result struct {
	K      float64
	Tau, A float64
	Gauge  Gauge
	LMax   int

	// ThetaL[l] = F_gamma,l / 4: the photon temperature multipole transfer
	// function (per unit MB95 normalization constant C).
	ThetaL []float64
	// ThetaPL[l] = G_gamma,l / 4: the polarization multipoles.
	ThetaPL []float64

	// Matter and radiation perturbations at TauEnd (gauge-dependent).
	DeltaC, DeltaB, DeltaG, DeltaNu, DeltaHNu float64
	ThetaC, ThetaB                            float64

	// Metric perturbations at TauEnd: (Phi, Psi) for conformal Newtonian,
	// (Eta, HDot) for synchronous.
	Phi, Psi, Eta, HDot float64

	// MaxConstraintResidual is the largest relative violation of the
	// unused Einstein constraint equation seen over the integration; it is
	// the paper's accuracy monitor.
	MaxConstraintResidual float64

	// TauSwitch is the conformal time at which tight coupling was released
	// (zero if the approximation was never used).
	TauSwitch float64
	// TauSlip is the conformal time at which the fast engine's slip regime
	// ended (see FastEvolve): from TauSwitch to TauSlip the hierarchies ran
	// as released while the baryon-photon momentum exchange stayed slaved
	// to the rest of the state. Zero if the regime was never taken: the
	// exact engine, and tight coupling that lasts until the window opens.
	TauSlip float64
	// TauStream is the conformal time at which a fast source-recording
	// run stopped carrying radiation moments (see FastEvolve; zero if it
	// never did). From there on the recorded samples and the final state
	// hold the streaming closure in place of evolved photon and massless-
	// neutrino moments: Theta0 = ThetaL[0] = -Phi, DeltaG = DeltaNu =
	// -4 Phi, Pi and every higher multipole zero.
	TauStream float64

	Stats ode.Stats
	// Flops is the model operation count (see FlopsPerRHS).
	Flops float64
	// Seconds is the wallclock time of the evolution.
	Seconds float64

	// Sources holds the recorded line-of-sight samples when requested.
	Sources []Sample
}

// Model bundles the precomputed substrate shared by all k modes: the
// background cosmology, the thermodynamic history, and (built lazily on
// first fast-engine use) the flattened evaluation tables. It is read-only
// during evolution and safe for concurrent use by many workers.
type Model struct {
	BG *cosmology.Background
	TH *thermo.Thermo
	// Spec is the parameter set Build made the model from, before any
	// flattening (BG.P holds the flattened one): what another process
	// passes to Build to get the same bits. Zero for a NewModel model.
	Spec cosmology.Params

	// tables caches the flattened evaluation tables (see EnsureEvalTables).
	tables *tablesState
}

// NumericsVersion names the numbers Build's models compute. Every change
// that moves the bits of a built model (a recombination grid, a default
// tolerance, an integration scheme) bumps it: the serving layer's cache
// keys carry it, and a farm refuses a worker built with another.
const NumericsVersion = 1

// NewModel builds the shared substrate for a cosmology.
func NewModel(bg *cosmology.Background, th *thermo.Thermo) *Model {
	return &Model{BG: bg, TH: th, tables: &tablesState{}}
}

// Build is the one constructor of a model from its parameters: the
// background (flattened when p.Flatten), the recombination history and
// thermodynamics with default options, and the substrate over them. Every
// process that must agree on a model's bits builds it here.
func Build(p cosmology.Params) (*Model, error) {
	newBG := cosmology.New
	if p.Flatten {
		newBG = cosmology.NewFlattened
	}
	bg, err := newBG(p)
	if err != nil {
		return nil, err
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		return nil, err
	}
	m := NewModel(bg, th)
	m.Spec = p
	return m, nil
}

// FlopsPerRHS is the operation-count model for one right-hand-side
// evaluation. The paper quotes machine flop rates measured on the C90 and
// transfers them to other machines by comparing operation counts; this
// model plays the same role for the Gflop tables of Section 5. lmax = -1
// bills a segment of the streaming regime, which carries no radiation
// moment: the base and the massive-neutrino block alone.
func FlopsPerRHS(lmax, lmaxNu, nq int, gauge Gauge) float64 {
	l1 := float64(lmax + 1)
	base := 260.0 // background, thermodynamics, Einstein sums
	photonsT := 10.0 * l1
	photonsP := 10.0 * l1
	masslessNu := 8.0 * l1
	massive := float64(nq) * (15.0*float64(lmaxNu+1) + 12.0)
	if gauge == Synchronous {
		base += 30.0
	}
	return base + photonsT + photonsP + masslessNu + massive
}
