package core

// Second battery: physics invariants beyond the basics in core_test.go.

import (
	"math"
	"testing"

	"plinger/internal/cosmology"
	"plinger/internal/ode"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

// Polarization is generated by Thomson scattering of the local quadrupole
// through recombination; before recombination tight coupling suppresses it,
// and a superhorizon mode generates essentially none.
func TestPolarizationPhysics(t *testing.T) {
	// Subhorizon mode: polarization present but far below temperature.
	res := evolve(t, Params{K: 0.05, LMax: 20, Gauge: Synchronous})
	var pT, pP float64
	for l := 2; l <= 20; l++ {
		pT += res.ThetaL[l] * res.ThetaL[l]
		pP += res.ThetaPL[l] * res.ThetaPL[l]
	}
	if pP == 0 {
		t.Fatal("no polarization generated")
	}
	if pP > 0.05*pT {
		t.Fatalf("polarization power %g vs temperature %g: too large", pP, pT)
	}
	// Superhorizon mode: polarization negligible relative to the
	// subhorizon mode's (compare quadrupoles).
	super := evolve(t, Params{K: 1e-4, LMax: 20, Gauge: Synchronous})
	if math.Abs(super.ThetaPL[2]) > 0.05*math.Abs(res.ThetaPL[2]) {
		t.Fatalf("superhorizon polarization %g should be tiny vs %g",
			super.ThetaPL[2], res.ThetaPL[2])
	}
}

// The polarization multipoles must also be gauge-invariant when evolved
// with massive neutrinos in the mix (exercises the Psi hierarchy's gauge
// sources end to end).
func TestMassiveNeutrinoGaugeInvariance(t *testing.T) {
	bg, err := cosmology.NewFlattened(cosmology.MDM(0.5))
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mdl := NewModel(bg, th)
	k := 0.04
	a, err := mdl.Evolve(Params{K: k, LMax: 20, lmaxNu: 10, Gauge: Synchronous})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mdl.Evolve(Params{K: k, LMax: 20, lmaxNu: 10, Gauge: ConformalNewtonian})
	if err != nil {
		t.Fatal(err)
	}
	var scale float64
	for l := 2; l <= 10; l++ {
		scale += a.ThetaL[l] * a.ThetaL[l]
	}
	scale = math.Sqrt(scale / 9.0)
	for l := 2; l <= 10; l++ {
		if d := math.Abs(a.ThetaL[l] - b.ThetaL[l]); d > 5e-3*scale {
			t.Fatalf("massive-nu gauge mismatch at l=%d: %g vs %g", l, a.ThetaL[l], b.ThetaL[l])
		}
	}
}

// The TCA hand-off must not leave an imprint: varying the switch threshold
// by an order of magnitude changes the final answer only at the tolerance
// level.
func TestTCAThresholdInsensitive(t *testing.T) {
	base := evolve(t, Params{K: 0.05, LMax: 16, Gauge: Synchronous, tcaFactor: 50})
	strict := evolve(t, Params{K: 0.05, LMax: 16, Gauge: Synchronous, tcaFactor: 800})
	if base.TauSwitch <= strict.TauSwitch {
		t.Fatalf("larger factor must release earlier: %g vs %g", base.TauSwitch, strict.TauSwitch)
	}
	for l := 2; l <= 10; l++ {
		d := math.Abs(base.ThetaL[l] - strict.ThetaL[l])
		if d > 2e-3*math.Abs(strict.ThetaL[l])+1e-8 {
			t.Fatalf("TCA threshold sensitivity at l=%d: %g vs %g", l, base.ThetaL[l], strict.ThetaL[l])
		}
	}
}

// Baryons fall into CDM wells after decoupling: delta_b -> delta_c at late
// times on subhorizon scales (the "baryon catch-up").
func TestBaryonCatchUp(t *testing.T) {
	bg := model(t).BG
	early := evolve(t, Params{K: 0.1, LMax: 12, Gauge: Synchronous, TauEnd: bg.Tau(2e-3)})
	late := evolve(t, Params{K: 0.1, LMax: 12, Gauge: Synchronous})
	fEarly := early.DeltaB / early.DeltaC
	fLate := late.DeltaB / late.DeltaC
	if fLate < fEarly {
		t.Fatalf("baryon fraction should grow: %g -> %g", fEarly, fLate)
	}
	if math.Abs(fLate-1.0) > 0.05 {
		t.Fatalf("delta_b/delta_c today = %g, want ~1", fLate)
	}
	if fEarly > 0.6 {
		t.Fatalf("baryons at z=500 should still lag CDM: ratio %g", fEarly)
	}
}

// Smaller scales entered the horizon earlier, so their matter transfer is
// suppressed relative to large scales (the shape behind the P(k) turnover).
func TestTransferSuppressionMonotone(t *testing.T) {
	prev := math.Inf(1)
	for _, k := range []float64{0.002, 0.02, 0.2} {
		res := evolve(t, Params{K: k, LMax: 10, Gauge: Synchronous})
		scaled := math.Abs(res.DeltaC) / (k * k)
		if scaled >= prev {
			t.Fatalf("transfer not suppressed at k=%g", k)
		}
		prev = scaled
	}
}

// The photon temperature today is isotropic to the eye: the monopole
// amplitude at tau0 is far below its recombination value for subhorizon
// modes (free streaming spreads it over multipoles).
func TestFreeStreamingSpreadsPower(t *testing.T) {
	th := model(t).TH
	atRec := evolve(t, Params{K: 0.1, LMax: 40, Gauge: Synchronous, TauEnd: th.TauRec()})
	today := evolve(t, Params{K: 0.1, LMax: 40, Gauge: Synchronous})
	if math.Abs(today.ThetaL[0]) > 0.5*math.Abs(atRec.ThetaL[0]) {
		t.Fatalf("monopole did not free-stream away: %g -> %g",
			atRec.ThetaL[0], today.ThetaL[0])
	}
	// And the high multipoles hold the power instead.
	var high float64
	for l := 5; l <= 40; l++ {
		high += today.ThetaL[l] * today.ThetaL[l]
	}
	if high == 0 {
		t.Fatal("no power transferred to high multipoles")
	}
}

// Evolving with the RKF45 comparator must give the same physics as DVERK
// (at matched tolerances), at different cost.
func TestAlternateIntegratorThroughCore(t *testing.T) {
	a := evolve(t, Params{K: 0.03, LMax: 12, Gauge: Synchronous})
	in := ode.NewRKF45(1e-6, 1e-12)
	in.InitialStep = 1e-3
	b := evolve(t, Params{K: 0.03, LMax: 12, Gauge: Synchronous, integrator: in})
	if math.Abs(a.DeltaC-b.DeltaC) > 1e-4*math.Abs(a.DeltaC) {
		t.Fatalf("integrators disagree: %g vs %g", a.DeltaC, b.DeltaC)
	}
	if b.Stats.Evals == a.Stats.Evals {
		t.Fatal("different methods should do different work")
	}
}

// A cosmological-constant model: the superhorizon potential decays at late
// times (late ISW), unlike in SCDM where it is constant.
func TestLambdaLateISW(t *testing.T) {
	p := cosmology.SCDM()
	p.OmegaLambda = 0.7
	p.OmegaC = 1.0 - p.OmegaB - p.OmegaLambda - p.OmegaGamma() - p.OmegaNuMassless()
	bg, err := cosmology.New(p)
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mdl := NewModel(bg, th)
	mid, err := mdl.Evolve(Params{K: 5e-4, LMax: 8, Gauge: ConformalNewtonian, TauEnd: bg.Tau(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	now, err := mdl.Evolve(Params{K: 5e-4, LMax: 8, Gauge: ConformalNewtonian})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(now.Phi) >= math.Abs(mid.Phi)*0.97 {
		t.Fatalf("Lambda should decay the potential: %g -> %g", mid.Phi, now.Phi)
	}

	// The late ISW source survives the fast engine's streaming switch: on
	// a mode that spends most of the run with no radiation state, the
	// decaying potential and its rate match the exact engine's.
	src := Params{K: 0.01, LMax: 30, Gauge: ConformalNewtonian, KeepSources: true}
	exact, err := mdl.Evolve(src)
	if err != nil {
		t.Fatal(err)
	}
	src.FastEvolve = true
	fast, err := mdl.Evolve(src)
	if err != nil {
		t.Fatal(err)
	}
	if fast.TauStream <= 0 || fast.TauStream > 0.5*fast.Tau {
		t.Fatalf("streaming switch at tau=%g of %g: the check needs it live for the Lambda era", fast.TauStream, fast.Tau)
	}
	if d := math.Abs(fast.Phi/exact.Phi - 1); d > 2e-5 {
		t.Errorf("final Phi: fast %g vs exact %g (rel %.3g)", fast.Phi, exact.Phi, d)
	}
	fe, ee := fast.Sources[len(fast.Sources)-1], exact.Sources[len(exact.Sources)-1]
	if d := math.Abs(fe.PhiDot/ee.PhiDot - 1); d > 2e-5 || fe.PhiDot*fe.Phi >= 0 {
		t.Errorf("final PhiDot: fast %g vs exact %g (rel %.3g), Phi %g", fe.PhiDot, ee.PhiDot, d, fe.Phi)
	}
}

// Neutrino anisotropic stress makes phi != psi in the radiation era; by
// matter domination the difference vanishes.
func TestAnisotropicStressClosesByMD(t *testing.T) {
	bg := model(t).BG
	rad := evolve(t, Params{K: 0.001, LMax: 10, Gauge: ConformalNewtonian, TauEnd: bg.Tau(3e-5)})
	mat := evolve(t, Params{K: 0.001, LMax: 10, Gauge: ConformalNewtonian, TauEnd: bg.Tau(0.3)})
	gapRad := math.Abs(rad.Phi-rad.Psi) / math.Abs(rad.Psi)
	gapMat := math.Abs(mat.Phi-mat.Psi) / math.Abs(mat.Psi)
	// RD: phi/psi = 1 + 2 R_nu/5 ~ 1.16 => gap ~ 0.16.
	if gapRad < 0.1 || gapRad > 0.25 {
		t.Fatalf("RD anisotropic stress gap %g, want ~0.16", gapRad)
	}
	if gapMat > 0.01 {
		t.Fatalf("MD gap %g, want ~0", gapMat)
	}
}

// Energy accounting: the total work reported equals steps implied by the
// stage count of DVERK (8 stages per step plus rejected trials).
func TestWorkAccountingConsistent(t *testing.T) {
	res := evolve(t, Params{K: 0.02, LMax: 10, Gauge: Synchronous})
	minEvals := 8 * res.Stats.Steps
	if res.Stats.Evals < minEvals {
		t.Fatalf("evals %d below 8*steps %d", res.Stats.Evals, minEvals)
	}
	if res.Stats.Evals > 3*minEvals {
		t.Fatalf("evals %d suspiciously above 8*steps %d (too many rejects)", res.Stats.Evals, minEvals)
	}
	wantFlops := float64(res.Stats.Evals) * FlopsPerRHS(10, 12, 0, Synchronous)
	if res.Flops != wantFlops {
		t.Fatalf("flop accounting: %g vs %g", res.Flops, wantFlops)
	}
}

// kTauStart controls the superhorizon margin; the final answer must be
// insensitive to it once k tau_i << 1 (convergence of the IC series).
func TestICStartConvergence(t *testing.T) {
	a := evolve(t, Params{K: 0.03, LMax: 12, Gauge: Synchronous, kTauStart: 0.05})
	b := evolve(t, Params{K: 0.03, LMax: 12, Gauge: Synchronous, kTauStart: 0.01})
	for l := 2; l <= 8; l++ {
		d := math.Abs(a.ThetaL[l] - b.ThetaL[l])
		if d > 5e-3*math.Abs(b.ThetaL[l])+1e-9 {
			t.Fatalf("kTauStart sensitivity at l=%d: %g vs %g", l, a.ThetaL[l], b.ThetaL[l])
		}
	}
}
