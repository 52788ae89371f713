package plinger

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"plinger/internal/core"
	"plinger/internal/spectra"
)

var (
	scdmOnce sync.Once
	scdmMdl  *Model
)

func scdmModel(t *testing.T) *Model {
	t.Helper()
	scdmOnce.Do(func() {
		m, err := New(SCDM())
		if err != nil {
			t.Fatal(err)
		}
		scdmMdl = m
	})
	return scdmMdl
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := SCDM()
	cfg.OmegaC = 0.1 // not flat
	if _, err := New(cfg); err == nil {
		t.Fatal("open model accepted without Flatten")
	}
	cfg.Flatten = true
	if _, err := New(cfg); err != nil {
		t.Fatalf("Flatten failed: %v", err)
	}
}

func TestModelBasics(t *testing.T) {
	m := scdmModel(t)
	if m.Tau0() < 11000 || m.Tau0() > 12100 {
		t.Fatalf("tau0 = %g", m.Tau0())
	}
	if m.TauRecombination() < 200 || m.TauRecombination() > 320 {
		t.Fatalf("tau_rec = %g", m.TauRecombination())
	}
}

func TestEvolveModeThroughFacade(t *testing.T) {
	m := scdmModel(t)
	res, err := m.EvolveMode(ModeOptions{K: 0.04, LMax: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.A-1) > 1e-3 || res.Steps == 0 || res.Flops <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.ConstraintResidual > 0.02 {
		t.Fatalf("constraint residual %g", res.ConstraintResidual)
	}
	if _, err := m.EvolveMode(ModeOptions{K: 0.04, Gauge: "bogus"}); err == nil {
		t.Fatal("bogus gauge accepted")
	}
	newt, err := m.EvolveMode(ModeOptions{K: 0.04, LMax: 16, Gauge: ConformalNewtonian})
	if err != nil {
		t.Fatal(err)
	}
	if newt.Phi == 0 || newt.Psi == 0 {
		t.Fatal("Newtonian potentials missing")
	}
	if newt.TauStream != 0 || newt.TauSlip != 0 {
		t.Fatalf("exact-engine run reports TauStream = %g, TauSlip = %g", newt.TauStream, newt.TauSlip)
	}
	// A fast source-recording run says where it stopped carrying radiation
	// moments, and what its final radiation state then stands for.
	strm, err := m.EvolveMode(ModeOptions{K: 0.04, LMax: 16, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if strm.TauStream < m.TauRecombination() || strm.TauStream >= m.Tau0() {
		t.Fatalf("TauStream = %g outside (tau_rec, tau0)", strm.TauStream)
	}
	// ... and, when tight coupling ends before the visibility window opens,
	// until when the slip stayed coupled.
	slip, err := m.EvolveMode(ModeOptions{K: 0.1, LMax: 16, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if slip.TauSlip <= 0 || slip.TauSlip > m.TauRecombination()-120 {
		t.Fatalf("TauSlip = %g outside (0, tau_rec - 120]", slip.TauSlip)
	}
	if strm.ThetaL[0] != -strm.Phi || strm.DeltaG != -4*strm.Phi || math.Abs(strm.Phi/newt.Phi-1) > 1e-3 {
		t.Fatalf("streaming closure not reported: ThetaL[0] %g, DeltaG %g, Phi %g (exact %g)", strm.ThetaL[0], strm.DeltaG, strm.Phi, newt.Phi)
	}
}

func TestSpectrumEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spectrum sweep is expensive")
	}
	m := scdmModel(t)
	spec, err := m.ComputeSpectrum(SpectrumOptions{
		LMaxCl: 40, NK: 80, Ls: []int{2, 5, 10, 20, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range spec.Cl {
		if c <= 0 {
			t.Fatalf("C_%d = %g", spec.L[i], c)
		}
	}
	amp, err := spec.NormalizeCOBE(18)
	if err != nil {
		t.Fatal(err)
	}
	if amp <= 0 {
		t.Fatalf("amplitude %g", amp)
	}
	bp := spec.BandPower(1) // l=5
	if bp < 20 || bp > 40 {
		t.Fatalf("band power at l=5: %g uK", bp)
	}
	if _, err := m.ComputeSpectrum(SpectrumOptions{Method: "nope"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestPolarizationThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force sweep is expensive")
	}
	m := scdmModel(t)
	opts := SpectrumOptions{LMaxCl: 20, NK: 50, Method: "brute", Ls: []int{5, 10, 20}}
	temp, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Polarization = true
	pol, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range temp.Cl {
		if pol.Cl[i] < 0 || pol.Cl[i] >= temp.Cl[i] {
			t.Fatalf("polarization %g vs temperature %g at l=%d", pol.Cl[i], temp.Cl[i], temp.L[i])
		}
	}
	// The LOS engine does not provide polarization.
	if _, err := m.ComputeSpectrum(SpectrumOptions{Polarization: true}); err == nil {
		t.Fatal("LOS polarization should be rejected")
	}
}

// The dispatcher choice is invisible in the physics: a C_l spectrum
// computed end-to-end over a PLINGER master/worker run (sources shipped
// back over the wire) must equal the shared-memory pool's bitwise.
func TestSpectrumTransportEquivalence(t *testing.T) {
	m := scdmModel(t)
	opts := SpectrumOptions{LMaxCl: 12, NK: 24, Ls: []int{2, 4, 8, 12}}
	ref, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []SpectrumOptions{
		{Transport: "chan", Workers: 3},
		{Transport: "fifo", Workers: 2},
	} {
		o.LMaxCl, o.NK, o.Ls = opts.LMaxCl, opts.NK, opts.Ls
		got, err := m.ComputeSpectrum(o)
		if err != nil {
			t.Fatalf("%s: %v", o.Transport, err)
		}
		for i := range ref.Cl {
			if got.Cl[i] != ref.Cl[i] {
				t.Fatalf("%s: C_%d = %g, pool %g", o.Transport,
					ref.L[i], got.Cl[i], ref.Cl[i])
			}
		}
	}
	if _, err := m.ComputeSpectrum(SpectrumOptions{LMaxCl: 12, Transport: "telegraph"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestFastSpectrumMatchesReference is the facade-level acceptance check of
// the fast C_l engine: the full fast path — fast evolution engine,
// table-driven projection, coarse-to-fine k refinement — must track the
// exact reference pipeline to < 1e-3 relative at every requested
// multipole, at equal LMaxCl/NK settings. The partial combination without
// FastEvolve is held to the same bound.
func TestFastSpectrumMatchesReference(t *testing.T) {
	m := scdmModel(t)
	opts := SpectrumOptions{LMaxCl: 60, NK: 60}
	if !testing.Short() {
		opts = SpectrumOptions{LMaxCl: 150, NK: 130} // the benchmark settings
	}
	ref, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, fast SpectrumOptions) {
		got, err := m.ComputeSpectrum(fast)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cl) != len(ref.Cl) {
			t.Fatalf("%s: multipole sets differ: %d vs %d", name, len(got.Cl), len(ref.Cl))
		}
		worst := 0.0
		for i := range ref.Cl {
			rel := math.Abs(got.Cl[i]-ref.Cl[i]) / ref.Cl[i]
			if rel > worst {
				worst = rel
			}
			if rel > 1e-3 {
				t.Errorf("%s: C_%d: fast %g vs reference %g (rel %g)", name, ref.L[i], got.Cl[i], ref.Cl[i], rel)
			}
		}
		t.Logf("%s: worst relative C_l deviation: %.3g", name, worst)
	}
	fast := opts
	fast.FastLOS = true
	fast.KRefine = 10
	check("fastlos+krefine", fast)
	fast.FastEvolve = true
	check("full fast path", fast)
}

func TestMatterPowerThroughFacade(t *testing.T) {
	m := scdmModel(t)
	res, err := m.MatterPower(MatterPowerOptions{KMin: 3e-4, KMax: 0.3, NK: 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.K) != 18 || res.Sigma8 <= 0 {
		t.Fatalf("bad matter power: %+v", res)
	}
	if math.Abs(res.T[0]-1) > 1e-9 {
		t.Fatalf("T(kmin) = %g", res.T[0])
	}
}

// TestMatterPowerWeightsBackgroundOmegas: MatterPower weights delta_m with
// the model's own density parameters, which flattening moves (for MDM(4.0)
// Omega_c falls from 0.94983 to 0.77967). Its result must be, bit for bit,
// what the same sweep gives with the background's Omega_c and Omega_b. For
// SCDM nothing is flattened, those are the requested values, and so its
// bits are the ones the requested values always gave.
func TestMatterPowerWeightsBackgroundOmegas(t *testing.T) {
	mdm, err := New(MDM(4.0))
	if err != nil {
		t.Fatal(err)
	}
	if mdm.core.BG.P.OmegaC == MDM(4.0).OmegaC {
		t.Fatal("flattening left MDM's Omega_c where it was")
	}
	o := MatterPowerOptions{KMin: 1e-3, KMax: 0.1, NK: 4}
	ks := spectra.LogGrid(o.KMin, o.KMax, o.NK)
	for name, m := range map[string]*Model{"mdm": mdm, "scdm": scdmModel(t)} {
		got, err := m.MatterPower(o)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := spectra.RunSweep(m.core, core.Params{LMax: 24, Gauge: core.Synchronous}, ks, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		p := m.core.BG.P
		tf, err := sw.MatterTransfer(p.OmegaC, p.OmegaB)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := sw.PowerSpectrum(m.prim, p.OmegaC, p.OmegaB)
		if err != nil {
			t.Fatal(err)
		}
		s8, err := sw.Sigma8(pk, p.H)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ks {
			if math.Float64bits(got.T[i]) != math.Float64bits(tf.T[i]) || math.Float64bits(got.P[i]) != math.Float64bits(pk[i]) {
				t.Fatalf("%s: k = %g: T %v P %v, from the background's Omegas T %v P %v", name, ks[i], got.T[i], got.P[i], tf.T[i], pk[i])
			}
		}
		if math.Float64bits(got.Sigma8) != math.Float64bits(s8) {
			t.Fatalf("%s: sigma8 = %v, from the background's Omegas %v", name, got.Sigma8, s8)
		}
	}
}

func TestRunParallelFacade(t *testing.T) {
	m := scdmModel(t)
	var ascii, bin bytes.Buffer
	run, err := m.RunParallel(ParallelOptions{
		KValues:  []float64{0.01, 0.03, 0.05, 0.02},
		Workers:  3,
		LMax:     10,
		ASCIIOut: &ascii, BinaryOut: &bin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 4 {
		t.Fatalf("results %d", len(run.Results))
	}
	for i, k := range []float64{0.01, 0.03, 0.05, 0.02} {
		if run.Results[i].K != k {
			t.Fatalf("order broken at %d", i)
		}
	}
	if run.Efficiency <= 0 || run.FlopRate <= 0 || run.BytesMoved == 0 {
		t.Fatalf("stats: %+v", run)
	}
	if ascii.Len() == 0 || bin.Len() == 0 {
		t.Fatal("output files empty")
	}
	if _, err := m.RunParallel(ParallelOptions{}); err == nil {
		t.Fatal("empty k list accepted")
	}
}

func TestSkyMapFacade(t *testing.T) {
	// Synthetic flat spectrum.
	var ls []int
	var cl []float64
	for l := 2; l <= 128; l += 2 {
		ls = append(ls, l)
		cl = append(cl, 1e-10/float64(l*(l+1)))
	}
	spec := &Spectrum{L: ls, Cl: cl, inner: nil}
	mp, err := MakeSkyMap(spec, 2.726, SkyMapOptions{Flat: true, N: 64, SizeDeg: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mp.NX != 64 || mp.Min >= mp.Max || mp.RMS <= 0 {
		t.Fatalf("map: %+v", mp)
	}
	var buf bytes.Buffer
	if err := mp.WritePGM(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty PGM")
	}
	full, err := MakeSkyMap(spec, 2.726, SkyMapOptions{N: 24, LMaxSynthesis: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if full.NY != 24 || full.NX != 48 {
		t.Fatalf("full sky dims %dx%d", full.NX, full.NY)
	}
}

func TestExperimentPoints(t *testing.T) {
	pts := ExperimentPoints()
	if len(pts) < 10 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Experiment[:4] != "COBE" {
		t.Fatal("COBE anchors the compilation")
	}
}

func TestMDMConfig(t *testing.T) {
	m, err := New(MDM(2.0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.EvolveMode(ModeOptions{K: 0.03, LMax: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaHNu == 0 {
		t.Fatal("massive neutrino transfer missing")
	}
}
