package core

// Property tests of the fast evolution engine: growth hand-off integrity,
// bitwise equivalence of the driver when every fast ingredient is switched
// off, accuracy of the full engine against the reference path, and the
// work ablation at equal tolerance.

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"plinger/internal/cosmology"
	"plinger/internal/ode"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

// TestFastEvolveDisabledBitwise: with growth, tables, PI and the slip
// regime all switched off, the fast-engine flag must be a pure no-op — the
// segmented driver takes exactly the reference path, bitwise.
func TestFastEvolveDisabledBitwise(t *testing.T) {
	m := model(t)
	for _, gauge := range []Gauge{Synchronous, ConformalNewtonian} {
		ref := Params{K: 0.04, LMax: 16, Gauge: gauge, KeepSources: true}
		off := ref
		off.FastEvolve = true
		off.noGrowLMax, off.noTables, off.noPI, off.noSlip = true, true, true, true
		a, err := m.Evolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Evolve(off)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats != b.Stats {
			t.Fatalf("%v: stats differ: %+v vs %+v", gauge, a.Stats, b.Stats)
		}
		for l := range a.ThetaL {
			if a.ThetaL[l] != b.ThetaL[l] || a.ThetaPL[l] != b.ThetaPL[l] {
				t.Fatalf("%v: moment l=%d differs bitwise: %g vs %g", gauge, l, a.ThetaL[l], b.ThetaL[l])
			}
		}
		if a.DeltaC != b.DeltaC || a.DeltaB != b.DeltaB || a.Eta != b.Eta || a.Phi != b.Phi {
			t.Fatalf("%v: fluid/metric state differs bitwise", gauge)
		}
		if len(a.Sources) != len(b.Sources) {
			t.Fatalf("%v: %d vs %d source samples", gauge, len(a.Sources), len(b.Sources))
		}
		for i := range a.Sources {
			if a.Sources[i] != b.Sources[i] {
				t.Fatalf("%v: source sample %d differs bitwise", gauge, i)
			}
		}
	}
}

// TestGrowHierarchyHandOff exercises the state-vector re-layout directly:
// every evolved moment must land at its new index unchanged, newly
// activated moments must be zero, and the pre-hierarchy block must be
// untouched.
func TestGrowHierarchyHandOff(t *testing.T) {
	mdl := model(t)
	p := Params{K: 0.1, LMax: 24, Gauge: Synchronous}
	p.setDefaults()
	b := &batch{ms: []mode{{Model: mdl, p: p, k: p.K, k2: p.K * p.K, sc: NewScratch()}}}
	b.sc = b.ms[0].sc
	m := &b.ms[0]
	m.lmax = 8
	m.layout()
	b.nvar = m.nvar
	y := make([]float64, m.nvar)
	for i := range y {
		y[i] = float64(i + 1) // distinct, nonzero
	}
	oldIfg, oldIgg, oldIfn := m.ifg, m.igg, m.ifn
	old := append([]float64(nil), y...)

	ny := b.resize(13, y)
	if m.lmax != 13 {
		t.Fatalf("lmax = %d after resize, want 13", m.lmax)
	}
	if m.nvar != len(ny) {
		t.Fatalf("nvar %d != len %d", m.nvar, len(ny))
	}
	for i := 0; i < oldIfg; i++ {
		if ny[i] != old[i] {
			t.Fatalf("fluid/metric entry %d changed: %g vs %g", i, ny[i], old[i])
		}
	}
	blocks := [][2]int{{oldIfg, m.ifg}, {oldIgg, m.igg}, {oldIfn, m.ifn}}
	for b, idx := range blocks {
		for l := 0; l <= 8; l++ {
			if ny[idx[1]+l] != old[idx[0]+l] {
				t.Fatalf("block %d moment l=%d not copied", b, l)
			}
		}
		for l := 9; l <= 13; l++ {
			if ny[idx[1]+l] != 0 {
				t.Fatalf("block %d new moment l=%d = %g, want 0", b, l, ny[idx[1]+l])
			}
		}
	}

	// Shrinking back must keep the surviving moments and the fluid block.
	sy := b.resize(shrinkLMax, ny)
	for i := 0; i < oldIfg; i++ {
		if sy[i] != old[i] {
			t.Fatalf("fluid/metric entry %d changed by shrink", i)
		}
	}
	for l := 0; l <= shrinkLMax; l++ {
		if sy[m.ifg+l] != old[oldIfg+l] {
			t.Fatalf("shrunk moment l=%d not preserved", l)
		}
	}
}

// TestFastEvolveMatchesReference: the full fast engine must track the
// reference path closely on the quantities the spectra consume — the
// final-time multipoles of a brute-style run and the matter perturbations
// — at equal tolerance.
func TestFastEvolveMatchesReference(t *testing.T) {
	m := model(t)
	for _, tc := range []struct {
		k    float64
		lmax int
	}{{0.02, 24}, {0.08, 60}} {
		ref := Params{K: tc.k, LMax: tc.lmax, Gauge: Synchronous}
		fast := ref
		fast.FastEvolve = true
		a, err := m.Evolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Evolve(fast)
		if err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for _, v := range a.ThetaL {
			if x := math.Abs(v); x > scale {
				scale = x
			}
		}
		for l := range a.ThetaL {
			if d := math.Abs(a.ThetaL[l] - b.ThetaL[l]); d > 1e-4*scale {
				t.Fatalf("k=%g l=%d: fast %g vs ref %g (scale %g)", tc.k, l, b.ThetaL[l], a.ThetaL[l], scale)
			}
		}
		if d := math.Abs(a.DeltaC-b.DeltaC) / math.Abs(a.DeltaC); d > 1e-4 {
			t.Fatalf("k=%g: DeltaC rel diff %g", tc.k, d)
		}
	}
}

// TestFastEvolveWorkAblation: at equal tolerance the fast engine must do
// materially less right-hand-side work than the fixed-hierarchy run. The
// raw evaluation count stays comparable (steps are limited by the
// free-streaming oscillation, not the state width), so the honest metrics
// are the modeled flop count — billed per segment at the active hierarchy
// size — and the rejected-step fraction the PI controller is there to cut.
func TestFastEvolveWorkAblation(t *testing.T) {
	m := model(t)
	ref := Params{K: 0.08, LMax: 60, Gauge: ConformalNewtonian, KeepSources: true}
	fast := ref
	fast.FastEvolve = true
	a, err := m.Evolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Evolve(fast)
	if err != nil {
		t.Fatal(err)
	}
	if b.Flops >= 0.6*a.Flops {
		t.Fatalf("fast engine flops %g not below 0.6x reference %g", b.Flops, a.Flops)
	}
	// The streaming switch is part of that engine: against the same run
	// tracking the shrunk hierarchies to the end it must cut the
	// evaluations by more than half and the billed flops (the late
	// evaluations are the cheap 6-moment ones) by 40 %.
	fast.noStream = true
	c, err := m.Evolve(fast)
	if err != nil {
		t.Fatal(err)
	}
	if b.TauStream <= 0 || c.TauStream != 0 {
		t.Fatalf("TauStream = %g with the switch, %g without", b.TauStream, c.TauStream)
	}
	if 2*b.Stats.Evals >= c.Stats.Evals || b.Flops >= 0.6*c.Flops {
		t.Fatalf("streaming run: %d evals, %g flops; hierarchy-tracking run: %d evals, %g flops",
			b.Stats.Evals, b.Flops, c.Stats.Evals, c.Flops)
	}
	// And so is the slip regime: against the same run evolving the slip
	// from the tight-coupling release on, it must save a quarter of the
	// accepted steps (the ones on the slip's stability boundary).
	fast.noStream, fast.noSlip = false, true
	d, err := m.Evolve(fast)
	if err != nil {
		t.Fatal(err)
	}
	if b.TauSlip <= b.TauSwitch || d.TauSlip != 0 {
		t.Fatalf("TauSlip = %g with the regime (TauSwitch %g), %g without", b.TauSlip, b.TauSwitch, d.TauSlip)
	}
	if 4*b.Stats.Steps > 3*d.Stats.Steps {
		t.Fatalf("slip regime: %d accepted steps, released from the start: %d", b.Stats.Steps, d.Stats.Steps)
	}
	if a.Stats.Rejected > 10 && b.Stats.Rejected > a.Stats.Rejected/2 {
		t.Fatalf("PI controller rejected %d of %d steps, reference %d of %d",
			b.Stats.Rejected, b.Stats.Steps, a.Stats.Rejected, a.Stats.Steps)
	}
}

// TestFastEvolveMDM: the fast engine composes with massive neutrinos (the
// momentum-dependent hierarchy stays at full resolution; tables carry the
// massive-neutrino background factors).
func TestFastEvolveMDM(t *testing.T) {
	if testing.Short() {
		t.Skip("MDM substrate build is slow")
	}
	bg, err := cosmology.NewFlattened(cosmology.MDM(4.0))
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(bg, th)
	ref := Params{K: 0.03, LMax: 20, Gauge: Synchronous}
	fast := ref
	fast.FastEvolve = true
	a, err := m.Evolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Evolve(fast)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(a.DeltaHNu-b.DeltaHNu) / math.Abs(a.DeltaHNu); d > 1e-3 {
		t.Fatalf("massive-neutrino density contrast rel diff %g", d)
	}
	if d := math.Abs(a.DeltaC-b.DeltaC) / math.Abs(a.DeltaC); d > 1e-4 {
		t.Fatalf("DeltaC rel diff %g", d)
	}

	// A source-recording run ends in the streaming regime, whose state
	// vector is the fluid + metric block and the massive-neutrino
	// hierarchies alone: the block must survive that re-layout and keep
	// evolving under the radiation-free metric.
	src := Params{K: 0.03, LMax: 20, Gauge: ConformalNewtonian, KeepSources: true}
	exact, err := m.Evolve(src)
	if err != nil {
		t.Fatal(err)
	}
	src.FastEvolve = true
	strm, err := m.Evolve(src)
	if err != nil {
		t.Fatal(err)
	}
	src.noStream = true
	hier, err := m.Evolve(src)
	if err != nil {
		t.Fatal(err)
	}
	if strm.TauStream <= 0 {
		t.Fatal("the MDM source run never took the streaming switch")
	}
	for _, c := range []struct {
		name             string
		got, hier, exact float64
	}{
		{"DeltaHNu", strm.DeltaHNu, hier.DeltaHNu, exact.DeltaHNu},
		{"DeltaC", strm.DeltaC, hier.DeltaC, exact.DeltaC},
		{"Phi", strm.Phi, hier.Phi, exact.Phi},
		{"Psi", strm.Psi, hier.Psi, exact.Psi},
	} {
		// 1e-5 of the hierarchy-tracking fast run (the switch alone), the
		// 1e-3 engine budget of the exact path.
		if d, e := math.Abs(c.got/c.hier-1), math.Abs(c.got/c.exact-1); d > 1e-5 || e > 1e-3 {
			t.Errorf("streaming MDM run: %s = %g; without the switch %g (rel %.3g), exact engine %g (rel %.3g)",
				c.name, c.got, c.hier, d, c.exact, e)
		}
	}
}

// TestKeepSourcesRequiresObserver: an integrator that cannot report steps
// must be rejected when sources are requested (it would silently record
// nothing), and accepted otherwise.
func TestKeepSourcesRequiresObserver(t *testing.T) {
	m := model(t)
	p := Params{K: 0.05, LMax: 8, KeepSources: true, Integrator: blindIntegrator{}}
	if _, err := m.Evolve(p); err == nil {
		t.Fatal("KeepSources with a non-observing integrator must error")
	}
	// RK4 implements StepObserver, so sources flow even from the
	// fixed-step comparator.
	p.Integrator = ode.NewRK4(400)
	r, err := m.Evolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sources) == 0 {
		t.Fatal("RK4 run recorded no sources")
	}
}

// TestSourceCapRestoresMaxStep: the visibility-window step cap must not
// leak into a caller-supplied integrator after the run.
func TestSourceCapRestoresMaxStep(t *testing.T) {
	m := model(t)
	ad := ode.NewDVERK(1e-6, 1e-12)
	ad.MaxStep = 777.0
	_, err := m.Evolve(Params{K: 0.05, LMax: 8, Gauge: ConformalNewtonian, KeepSources: true, Integrator: ad})
	if err != nil {
		t.Fatal(err)
	}
	if ad.MaxStep != 777.0 {
		t.Fatalf("caller MaxStep polluted: %g", ad.MaxStep)
	}
}

// blindIntegrator satisfies ode.Integrator but not ode.StepObserver.
type blindIntegrator struct{}

func (blindIntegrator) Integrate(f ode.Func, t0, t1 float64, y []float64) (ode.Stats, error) {
	return ode.Stats{}, nil
}
func (blindIntegrator) Name() string { return "blind" }

// TestStreamingMatchesHierarchy: the radiation-streaming switch against the
// same engine tracking the shrunk hierarchies to the end (noStream). Up to
// the switch the two runs are one trajectory, bitwise; after it the metric
// the line-of-sight sources consume agrees to 1e-5 of max|Phi| while the
// integrator stops paying for the free-streaming oscillation; and a mode
// that never reaches k*tau = streamKTau is untouched.
func TestStreamingMatchesHierarchy(t *testing.T) {
	m := model(t)
	evolve := func(k float64, noStream bool) *Result {
		t.Helper()
		r, err := m.Evolve(Params{K: k, LMax: 24, Gauge: ConformalNewtonian,
			KeepSources: true, FastEvolve: true, noStream: noStream})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, k := range []float64{0.02, 0.05, 0.1} {
		hier, strm := evolve(k, true), evolve(k, false)
		if hier.TauStream != 0 {
			t.Fatalf("k=%g: noStream run reports TauStream = %g", k, hier.TauStream)
		}
		ts := strm.TauStream
		if ts < streamKTau/k || ts < m.radShrinkTau() || ts >= strm.Tau {
			t.Fatalf("k=%g: TauStream = %g outside [max(%g, %g), %g)", k, ts, streamKTau/k, m.radShrinkTau(), strm.Tau)
		}
		var scale float64
		for _, s := range hier.Sources {
			scale = math.Max(scale, math.Abs(s.Phi))
		}
		// Before the switch: one trajectory (the step that lands on the
		// switch time is already clipped by it).
		n := 0
		for ; n < len(strm.Sources) && strm.Sources[n].Tau < ts; n++ {
			if strm.Sources[n] != hier.Sources[n] {
				t.Fatalf("k=%g: sample %d (tau=%g) before the switch at %g differs bitwise", k, n, strm.Sources[n].Tau, ts)
			}
		}
		if n == 0 || n == len(strm.Sources) {
			t.Fatalf("k=%g: %d of %d samples precede the switch", k, n, len(strm.Sources))
		}
		// After it: the streaming run's samples against the hierarchy run
		// interpolated to the same times.
		j := n
		var dPot, dDot float64
		for _, s := range strm.Sources[n:] {
			for j < len(hier.Sources)-1 && hier.Sources[j].Tau < s.Tau {
				j++
			}
			a, b := hier.Sources[j-1], hier.Sources[j]
			f := (s.Tau - a.Tau) / (b.Tau - a.Tau)
			dPot = math.Max(dPot, math.Abs(s.Phi-(a.Phi+f*(b.Phi-a.Phi))))
			dPot = math.Max(dPot, math.Abs(s.Psi-(a.Psi+f*(b.Psi-a.Psi))))
			dDot = math.Max(dDot, math.Abs(s.PhiDot-(a.PhiDot+f*(b.PhiDot-a.PhiDot))))
			// The sample at the switch itself still shows the hierarchies.
			if s.Tau > ts && (s.Theta0 != -s.Phi || s.Pi != 0) {
				t.Fatalf("k=%g tau=%g: streaming sample carries Theta0 = %g (Phi %g), Pi = %g", k, s.Tau, s.Theta0, s.Phi, s.Pi)
			}
		}
		// PhiDot carries a 1/Mpc: it is held to the same fraction of
		// k max|Phi|, the rate at which a potential of that size can move.
		if dPot > 1e-5*scale || dDot > 1e-5*k*scale {
			t.Errorf("k=%g: after the switch Phi/Psi off by %.3g, PhiDot by %.3g (max|Phi| %.3g)", k, dPot, dDot, scale)
		}
		if strm.ThetaL[0] != -strm.Phi || strm.ThetaL[1] != 0 || strm.DeltaG != -4*strm.Phi {
			t.Errorf("k=%g: final state does not report the streaming closure", k)
		}
		after := func(r *Result) int {
			i := sort.Search(len(r.Sources), func(i int) bool { return r.Sources[i].Tau > ts })
			return len(r.Sources) - i
		}
		t.Logf("k=%g: switch at tau=%.0f, accepted steps after it %d -> %d (all: %d -> %d), flops %.3g -> %.3g",
			k, ts, after(hier), after(strm), hier.Stats.Steps, strm.Stats.Steps, hier.Flops, strm.Flops)
		if k == 0.1 && (after(strm)*5 > after(hier) || strm.Stats.Steps*2 > hier.Stats.Steps) {
			t.Errorf("k=0.1: %d accepted steps after the switch (%d in all), hierarchy run %d (%d): want >= 5x (2x) fewer",
				after(strm), strm.Stats.Steps, after(hier), hier.Stats.Steps)
		}
	}
	// k*tau0 < streamKTau: the switch is never planned.
	k := 0.8 * streamKTau / m.BG.Tau0()
	hier, strm := evolve(k, true), evolve(k, false)
	hier.Seconds, strm.Seconds = 0, 0
	if strm.TauStream != 0 || !reflect.DeepEqual(hier, strm) {
		t.Fatalf("k=%g (k*tau0 = %.1f): run below the streaming threshold is not bitwise unchanged", k, k*m.BG.Tau0())
	}
}
