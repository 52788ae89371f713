package core

import (
	"math"
	"testing"

	"plinger/internal/cosmology"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

// sharedModel builds the SCDM substrate once for the whole test package.
var sharedModel *Model

func model(t testing.TB) *Model {
	t.Helper()
	if sharedModel != nil {
		return sharedModel
	}
	bg, err := cosmology.New(cosmology.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharedModel = NewModel(bg, th)
	return sharedModel
}

func evolve(t *testing.T, p Params) *Result {
	t.Helper()
	res, err := model(t).Evolve(p)
	if err != nil {
		t.Fatalf("Evolve(k=%g, %v): %v", p.K, p.Gauge, err)
	}
	return res
}

func TestEvolveCompletesBothGauges(t *testing.T) {
	for _, g := range []Gauge{Synchronous, ConformalNewtonian} {
		res := evolve(t, Params{K: 0.05, LMax: 16, Gauge: g})
		if math.Abs(res.A-1.0) > 1e-3 {
			t.Fatalf("%v: final a = %g, want 1", g, res.A)
		}
		if res.Stats.Steps == 0 {
			t.Fatalf("%v: no steps taken", g)
		}
		if res.Flops <= 0 || res.Seconds < 0 {
			t.Fatalf("%v: bad accounting %g flops %g s", g, res.Flops, res.Seconds)
		}
	}
}

func TestEinsteinConstraintSmall(t *testing.T) {
	// The unused Einstein equation is the paper's accuracy monitor. The
	// residual peaks at the start time, where the adiabatic series is
	// truncated at relative order (k tau_i)^2 ~ 2.5e-3, and decays from
	// there; anything beyond the percent level indicates an equation bug.
	for _, g := range []Gauge{Synchronous, ConformalNewtonian} {
		res := evolve(t, Params{K: 0.08, LMax: 20, Gauge: g})
		if res.MaxConstraintResidual > 2e-2 {
			t.Fatalf("%v: constraint residual %g", g, res.MaxConstraintResidual)
		}
	}
}

func TestConstraintResidualShrinksWithEarlierStart(t *testing.T) {
	// Starting further outside the horizon improves the series accuracy,
	// so the peak residual must drop roughly as (k tau_i)^2.
	coarse := evolve(t, Params{K: 0.08, LMax: 12, Gauge: Synchronous, kTauStart: 0.1, TauEnd: 300})
	fine := evolve(t, Params{K: 0.08, LMax: 12, Gauge: Synchronous, kTauStart: 0.02, TauEnd: 300})
	if fine.MaxConstraintResidual >= coarse.MaxConstraintResidual {
		t.Fatalf("residual did not shrink: %g -> %g",
			coarse.MaxConstraintResidual, fine.MaxConstraintResidual)
	}
}

func TestTightCouplingUsedAndReleased(t *testing.T) {
	res := evolve(t, Params{K: 0.05, LMax: 12, Gauge: Synchronous})
	if res.TauSwitch <= 0 {
		t.Fatal("tight coupling was never engaged")
	}
	th := model(t).TH
	if res.TauSwitch >= th.TauRec() {
		t.Fatalf("tight coupling released at tau=%g, after recombination %g", res.TauSwitch, th.TauRec())
	}
}

func TestTCAAgreesWithStiffIntegration(t *testing.T) {
	// Validate the tight-coupling approximation against the exact (stiff)
	// Thomson terms. A small k starts late enough that DVERK can resolve
	// the opacity directly; the TCA run must agree while being far
	// cheaper. This is the integrator-level ablation of Section 2.
	if testing.Short() {
		t.Skip("the stiff ablation run is expensive")
	}
	a := evolve(t, Params{K: 0.002, LMax: 8, Gauge: Synchronous, TauEnd: 60})
	b := evolve(t, Params{K: 0.002, LMax: 8, Gauge: Synchronous, TauEnd: 60, noTCA: true})
	if b.Stats.Evals < 2*a.Stats.Evals {
		t.Fatalf("stiff run suspiciously cheap: %d vs %d evals", b.Stats.Evals, a.Stats.Evals)
	}
	if math.Abs(a.DeltaG-b.DeltaG) > 1e-3*math.Abs(a.DeltaG) {
		t.Fatalf("TCA and stiff runs disagree: delta_g %g vs %g", a.DeltaG, b.DeltaG)
	}
	if math.Abs(a.DeltaC-b.DeltaC) > 1e-3*math.Abs(a.DeltaC) {
		t.Fatalf("TCA and stiff runs disagree: delta_c %g vs %g", a.DeltaC, b.DeltaC)
	}
}

func TestAdiabaticRelationEarly(t *testing.T) {
	// While the mode is still superhorizon (k tau = 0.2 here) the
	// adiabatic relation delta_b = delta_c = (3/4) delta_gamma holds.
	res := evolve(t, Params{K: 0.01, LMax: 12, Gauge: Synchronous, TauEnd: 20})
	if math.Abs(res.DeltaB-res.DeltaC) > 1e-2*math.Abs(res.DeltaC) {
		t.Fatalf("delta_b %g != delta_c %g", res.DeltaB, res.DeltaC)
	}
	if math.Abs(res.DeltaB-0.75*res.DeltaG) > 1e-2*math.Abs(res.DeltaB) {
		t.Fatalf("delta_b %g != 3/4 delta_g %g", res.DeltaB, 0.75*res.DeltaG)
	}
}

func TestMatterGrowsLinearlyInMatterEra(t *testing.T) {
	// delta_c grows as a in the matter era: compare a=0.2 and a=0.8
	// (tau ratio 2 => growth ratio 4 in EdS, delta ~ a ~ tau^2).
	bg := model(t).BG
	r1 := evolve(t, Params{K: 0.05, LMax: 12, Gauge: Synchronous, TauEnd: bg.Tau(0.2)})
	r2 := evolve(t, Params{K: 0.05, LMax: 12, Gauge: Synchronous, TauEnd: bg.Tau(0.8)})
	growth := r2.DeltaC / r1.DeltaC
	if math.Abs(growth-4.0) > 0.15 {
		t.Fatalf("matter growth factor %g, want ~4 (delta ~ a)", growth)
	}
}

func TestSuperhorizonModeFrozen(t *testing.T) {
	// A mode far outside the horizon today: the Newtonian potential phi is
	// constant in the matter era and delta_c barely evolves relative to
	// subhorizon growth.
	bg := model(t).BG
	rEarly := evolve(t, Params{K: 2e-4, LMax: 8, Gauge: ConformalNewtonian, TauEnd: bg.Tau(0.3)})
	rLate := evolve(t, Params{K: 2e-4, LMax: 8, Gauge: ConformalNewtonian, TauEnd: bg.Tau(0.9)})
	if math.Abs(rLate.Phi/rEarly.Phi-1.0) > 0.02 {
		t.Fatalf("superhorizon phi not frozen in matter era: %g -> %g", rEarly.Phi, rLate.Phi)
	}
}

func TestPotentialDropsThroughEquality(t *testing.T) {
	// Through the radiation-to-matter transition the superhorizon potential
	// falls by the classic factor 9/10.
	bg := model(t).BG
	rRad := evolve(t, Params{K: 1e-3, LMax: 8, Gauge: ConformalNewtonian, TauEnd: bg.Tau(3e-5)})
	rMat := evolve(t, Params{K: 1e-3, LMax: 8, Gauge: ConformalNewtonian, TauEnd: bg.Tau(0.2)})
	ratio := rMat.Phi / rRad.Phi
	if ratio < 0.83 || ratio > 0.95 {
		t.Fatalf("phi(matter)/phi(radiation) = %g, want ~0.9", ratio)
	}
}

func TestGaugeInvarianceOfHighMultipoles(t *testing.T) {
	// Theta_l for l >= 2 is gauge-invariant: the synchronous and conformal
	// Newtonian runs must agree. This is the strongest end-to-end
	// cross-check of the full equation set (it exercises every hierarchy,
	// the Einstein equations and the initial conditions in both gauges).
	k := 0.06
	lmax := 24
	a := evolve(t, Params{K: k, LMax: lmax, Gauge: Synchronous})
	b := evolve(t, Params{K: k, LMax: lmax, Gauge: ConformalNewtonian})
	// RMS amplitude for scale.
	var scale float64
	for l := 2; l <= 10; l++ {
		scale += a.ThetaL[l] * a.ThetaL[l]
	}
	scale = math.Sqrt(scale / 9.0)
	for l := 2; l <= 10; l++ {
		diff := math.Abs(a.ThetaL[l] - b.ThetaL[l])
		if diff > 2e-3*scale {
			t.Fatalf("Theta_%d differs between gauges: %g vs %g (scale %g)",
				l, a.ThetaL[l], b.ThetaL[l], scale)
		}
	}
	// Polarization is gauge-invariant at every l.
	for l := 0; l <= 10; l++ {
		diff := math.Abs(a.ThetaPL[l] - b.ThetaPL[l])
		if diff > 2e-3*scale {
			t.Fatalf("ThetaP_%d differs between gauges: %g vs %g", l, a.ThetaPL[l], b.ThetaPL[l])
		}
	}
}

func TestPhotonMonopoleOscillates(t *testing.T) {
	// Before recombination the photon-baryon fluid undergoes acoustic
	// oscillation: the effective monopole at recombination alternates in
	// sign as a function of k. Scan a few k and count sign changes.
	th := model(t).TH
	tauRec := th.TauRec()
	signChanges := 0
	var prev float64
	for _, k := range []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20} {
		res := evolve(t, Params{K: k, LMax: 10, Gauge: Synchronous, TauEnd: tauRec})
		v := res.DeltaG
		if prev != 0 && v*prev < 0 {
			signChanges++
		}
		prev = v
	}
	if signChanges < 2 {
		t.Fatalf("expected acoustic sign changes across k, got %d", signChanges)
	}
}

func TestNeutrinoFreeStreamingDampsMonopole(t *testing.T) {
	// Massless neutrinos free-stream: inside the horizon their density
	// contrast is strongly suppressed relative to the coupled photons
	// before recombination.
	res := evolve(t, Params{K: 0.2, LMax: 16, Gauge: Synchronous, TauEnd: 150})
	if math.Abs(res.DeltaNu) > math.Abs(res.DeltaG) {
		t.Fatalf("neutrino contrast %g should be damped below photon %g",
			res.DeltaNu, res.DeltaG)
	}
}

func TestMassiveNeutrinoRun(t *testing.T) {
	bg, err := cosmology.NewFlattened(cosmology.MDM(1.0))
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mdl := NewModel(bg, th)
	res, err := mdl.Evolve(Params{K: 0.05, LMax: 12, lmaxNu: 8, Gauge: Synchronous})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaHNu == 0 {
		t.Fatal("massive neutrino density contrast not computed")
	}
	if res.MaxConstraintResidual > 5e-3 {
		t.Fatalf("constraint residual %g with massive neutrinos", res.MaxConstraintResidual)
	}
	// Early on the massive species is relativistic and adiabatic with the
	// massless one.
	early, err := mdl.Evolve(Params{K: 0.05, LMax: 12, lmaxNu: 8, Gauge: Synchronous, TauEnd: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(early.DeltaHNu-early.DeltaNu) > 0.05*math.Abs(early.DeltaNu) {
		t.Fatalf("relativistic massive nu contrast %g != massless %g", early.DeltaHNu, early.DeltaNu)
	}
}

func TestSourcesRecorded(t *testing.T) {
	res := evolve(t, Params{K: 0.05, LMax: 12, Gauge: ConformalNewtonian, KeepSources: true})
	if len(res.Sources) < 100 {
		t.Fatalf("only %d source samples", len(res.Sources))
	}
	prevTau := 0.0
	for _, s := range res.Sources {
		if s.Tau <= prevTau {
			t.Fatal("source times not increasing")
		}
		prevTau = s.Tau
	}
	last := res.Sources[len(res.Sources)-1]
	if last.Kappa > 1e-3 {
		t.Fatalf("final optical depth %g, want ~0", last.Kappa)
	}
	first := res.Sources[0]
	if first.Kappa < 10 {
		t.Fatalf("initial optical depth %g, want >> 1", first.Kappa)
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	mdl := model(t)
	if _, err := mdl.Evolve(Params{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := mdl.Evolve(Params{K: -1}); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := mdl.Evolve(Params{K: 0.1, TauEnd: 1e9}); err == nil {
		t.Error("TauEnd beyond present accepted")
	}
}

func TestThetaLOutputShape(t *testing.T) {
	res := evolve(t, Params{K: 0.05, LMax: 16, Gauge: Synchronous})
	if len(res.ThetaL) != 17 || len(res.ThetaPL) != 17 {
		t.Fatalf("moment slices %d/%d, want 17", len(res.ThetaL), len(res.ThetaPL))
	}
	// The transfer must be non-trivial.
	var sum float64
	for _, v := range res.ThetaL {
		sum += v * v
	}
	if sum == 0 {
		t.Fatal("all temperature moments zero")
	}
}

func TestFlopsPerRHSModel(t *testing.T) {
	base := FlopsPerRHS(100, 12, 0, Synchronous)
	larger := FlopsPerRHS(200, 12, 0, Synchronous)
	if larger <= base {
		t.Fatal("flop model must grow with lmax")
	}
	withNu := FlopsPerRHS(100, 12, 16, Synchronous)
	if withNu <= base {
		t.Fatal("flop model must grow with massive neutrinos")
	}
	// Roughly linear in lmax.
	ratio := (larger - base) / base
	if ratio < 0.5 || ratio > 1.2 {
		t.Fatalf("lmax scaling ratio %g", ratio)
	}
}

func TestGaugeString(t *testing.T) {
	if Synchronous.String() != "synchronous" || ConformalNewtonian.String() != "conformal-newtonian" {
		t.Fatal("gauge names")
	}
	if Gauge(9).String() == "" {
		t.Fatal("unknown gauge should still print")
	}
}
