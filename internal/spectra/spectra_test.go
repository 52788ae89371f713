package spectra

import (
	"math"
	"sync"
	"testing"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

var (
	mdlOnce sync.Once
	mdl     *core.Model
)

func model(t *testing.T) *core.Model {
	t.Helper()
	mdlOnce.Do(func() {
		bg, err := cosmology.New(cosmology.SCDM())
		if err != nil {
			t.Fatal(err)
		}
		th, err := thermo.New(bg, recomb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mdl = core.NewModel(bg, th)
	})
	return mdl
}

func TestGrids(t *testing.T) {
	ks := ClGrid(300, 12000, 100)
	if len(ks) != 100 {
		t.Fatalf("grid length %d", len(ks))
	}
	if ks[0] <= 0 || ks[99] <= ks[0] {
		t.Fatal("grid not increasing")
	}
	if ks[99] < 300.0/12000.0 {
		t.Fatalf("kmax %g cannot support l=300", ks[99])
	}
	lg := LogGrid(1e-4, 1, 31)
	ratio := lg[1] / lg[0]
	for i := 1; i < len(lg); i++ {
		if math.Abs(lg[i]/lg[i-1]-ratio) > 1e-9 {
			t.Fatal("log grid not geometric")
		}
	}
}

func TestPrimordial(t *testing.T) {
	p := DefaultPrimordial(1.0)
	if p.At(0.001) != p.At(0.1) {
		t.Fatal("n=1 must be scale-invariant")
	}
	p2 := Primordial{N: 0.9, Amp: 2, Pivot: 0.05}
	if p2.At(0.05) != 2 {
		t.Fatalf("amplitude at pivot: %g", p2.At(0.05))
	}
	if p2.At(0.5) >= p2.At(0.05) {
		t.Fatal("red spectrum must fall with k")
	}
}

func TestRunSweepErrors(t *testing.T) {
	if _, err := RunSweep(model(t), core.Params{LMax: 8}, nil, 1, false); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := FromResults([]float64{1, 2}, make([]*core.Result, 1), 100); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromResults([]float64{1}, make([]*core.Result, 1), 100); err == nil {
		t.Fatal("nil result accepted")
	}
}

// The decisive cross-check: the line-of-sight integral and the brute-force
// hierarchy read-off are computed by entirely different code paths from the
// same evolution equations — they must agree.
func TestLOSMatchesBruteForce(t *testing.T) {
	m := model(t)
	k := 0.03
	tau0 := m.BG.Tau0()
	// Brute force: hierarchy large enough that truncation reflections
	// cannot pollute the low multipoles (k tau0 ~ 355).
	brute, err := m.Evolve(core.Params{K: k, LMax: 520, Gauge: core.ConformalNewtonian})
	if err != nil {
		t.Fatal(err)
	}
	// Line of sight: short hierarchy, sources recorded.
	los, err := m.Evolve(core.Params{K: k, LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true})
	if err != nil {
		t.Fatal(err)
	}
	theta, err := ThetaLOS(los, 60, tau0, m.TH.TauRec())
	if err != nil {
		t.Fatal(err)
	}
	// Compare at multipoles where the signal is appreciable.
	var rms float64
	for l := 5; l <= 60; l++ {
		rms += brute.ThetaL[l] * brute.ThetaL[l]
	}
	rms = math.Sqrt(rms / 56.0)
	for _, l := range []int{10, 20, 30, 45, 60} {
		diff := math.Abs(theta[l] - brute.ThetaL[l])
		if diff > 0.1*rms {
			t.Fatalf("l=%d: LOS %g vs brute %g (rms %g)", l, theta[l], brute.ThetaL[l], rms)
		}
	}
}

func TestLOSRequiresSourcesAndGauge(t *testing.T) {
	m := model(t)
	r, err := m.Evolve(core.Params{K: 0.01, LMax: 12, Gauge: core.ConformalNewtonian})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThetaLOS(r, 20, m.BG.Tau0(), m.TH.TauRec()); err == nil {
		t.Fatal("missing sources accepted")
	}
	r2, err := m.Evolve(core.Params{K: 0.01, LMax: 12, Gauge: core.Synchronous, KeepSources: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThetaLOS(r2, 20, m.BG.Tau0(), m.TH.TauRec()); err == nil {
		t.Fatal("synchronous gauge accepted")
	}
}

// clSweep computes a reduced-resolution C_l via the line-of-sight engine;
// shared by the shape tests below.
func clSweep(t *testing.T, lmaxCl, nk int) (*Sweep, *ClSpectrum) {
	t.Helper()
	m := model(t)
	ks := ClGrid(lmaxCl, m.BG.Tau0(), nk)
	sw, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true}, ks, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ls := []int{2, 3, 4, 6, 8, 10, 15, 20, 30, 50, 80, 110, 140, 170, 200, 220, 240, 270, 300}
	cl, err := sw.ClLOS(ls, DefaultPrimordial(1.0), m.BG.P.TCMB, m.TH.TauRec())
	if err != nil {
		t.Fatal(err)
	}
	return sw, cl
}

func TestClShapeAndCOBENormalization(t *testing.T) {
	if testing.Short() {
		t.Skip("C_l sweep is expensive")
	}
	_, cl := clSweep(t, 300, 260)

	// All positive.
	for i, v := range cl.Cl {
		if v <= 0 {
			t.Fatalf("C_%d = %g", cl.L[i], v)
		}
	}
	// Sachs-Wolfe plateau: l(l+1)C_l roughly flat from l=4..20 (slow rise
	// allowed: ISW and beam into the peak).
	band := func(l int) float64 {
		for i, ll := range cl.L {
			if ll == l {
				return float64(l*(l+1)) * cl.Cl[i]
			}
		}
		t.Fatalf("l=%d missing", l)
		return 0
	}
	if r := band(20) / band(4); r < 0.6 || r > 2.0 {
		t.Fatalf("SW plateau ratio l=20/l=4: %g", r)
	}
	// First acoustic peak near l ~ 220 for SCDM: the peak region must rise
	// well above the plateau.
	if r := band(220) / band(10); r < 2.0 {
		t.Fatalf("first peak contrast %g, want > 2", r)
	}
	// The peak is near 220, so l=220 should exceed both l=110 and l=300.
	if band(220) <= band(110) || band(220) <= band(300) {
		t.Fatalf("peak not near l=220: %g %g %g", band(110), band(220), band(300))
	}

	// COBE normalization: Q = 18 uK makes the low-l band power ~ 28 uK.
	if _, err := cl.NormalizeCOBE(18.0); err != nil {
		t.Fatal(err)
	}
	got := cl.BandPower(0) // l=2
	want := 2.726e6 * math.Sqrt(6.0/(2.0*math.Pi)*4.0*math.Pi/5.0) * 18.0 / 2.726e6
	_ = want
	// After normalization the quadrupole band power is exactly
	// sqrt(l(l+1)/2pi * 4pi/5) * Q = sqrt(12/5) ... evaluate directly:
	exact := math.Sqrt(6.0/(2.0*math.Pi)*(4.0*math.Pi/5.0)) * 18.0
	if math.Abs(got-exact) > 1e-6*exact {
		t.Fatalf("quadrupole band power %g, want %g", got, exact)
	}
	// Low-l band powers in the COBE ballpark (~25-35 uK).
	for i, l := range cl.L {
		if l >= 4 && l <= 20 {
			bp := cl.BandPower(i)
			if bp < 18 || bp > 45 {
				t.Fatalf("band power at l=%d is %g uK, outside the COBE ballpark", l, bp)
			}
		}
	}
}

func TestBruteForceClAgreesWithLOS(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force sweep is expensive")
	}
	m := model(t)
	// Low multipoles only: small k grid, moderate hierarchy.
	ks := ClGrid(40, m.BG.Tau0(), 90)
	sw, err := RunSweep(m, core.Params{LMax: 260, Gauge: core.ConformalNewtonian, KeepSources: true}, ks, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	ls := []int{5, 10, 20, 35}
	brute, err := sw.Cl(ls, DefaultPrimordial(1.0), m.BG.P.TCMB)
	if err != nil {
		t.Fatal(err)
	}
	los, err := sw.ClLOS(ls, DefaultPrimordial(1.0), m.BG.P.TCMB, m.TH.TauRec())
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range ls {
		if brute.Cl[i] <= 0 || los.Cl[i] <= 0 {
			t.Fatalf("non-positive C_%d", l)
		}
		r := brute.Cl[i] / los.Cl[i]
		if r < 0.85 || r > 1.18 {
			t.Fatalf("brute/LOS C_%d ratio %g", l, r)
		}
	}
}

func TestMatterTransferAndPower(t *testing.T) {
	m := model(t)
	ks := LogGrid(2e-4, 0.3, 22)
	sw, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.Synchronous}, ks, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	p := m.BG.P
	tf, err := sw.MatterTransfer(p.OmegaC, p.OmegaB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tf.T[0]-1.0) > 1e-9 {
		t.Fatalf("T(kmin) = %g, want 1", tf.T[0])
	}
	// T(k) decreases towards small scales and is heavily suppressed at
	// k = 0.3 for SCDM.
	for i := 1; i < len(tf.T); i++ {
		if tf.T[i] > tf.T[i-1]*1.02 {
			t.Fatalf("transfer function not monotone at k=%g", tf.K[i])
		}
	}
	last := tf.T[len(tf.T)-1]
	if last > 0.1 || last <= 0 {
		t.Fatalf("T(0.3) = %g, want strong suppression", last)
	}

	pk, err := sw.PowerSpectrum(DefaultPrimordial(1.0), p.OmegaC, p.OmegaB)
	if err != nil {
		t.Fatal(err)
	}
	// P(k) peaks near the equality scale k_eq ~ 0.02/Mpc for SCDM h=0.5.
	best, bestK := 0.0, 0.0
	for i, v := range pk {
		if v > best {
			best, bestK = v, ks[i]
		}
	}
	if bestK < 0.005 || bestK > 0.06 {
		t.Fatalf("P(k) turnover at k=%g, want ~0.02", bestK)
	}

	s8, err := sw.Sigma8(pk, p.H)
	if err != nil {
		t.Fatal(err)
	}
	if s8 <= 0 {
		t.Fatalf("sigma8 = %g", s8)
	}
}

func TestSigma8COBENormalizedSCDM(t *testing.T) {
	if testing.Short() {
		t.Skip("requires both a Cl and a transfer sweep")
	}
	m := model(t)
	p := m.BG.P

	// COBE scale from a low-l Cl computation.
	ks := ClGrid(30, m.BG.Tau0(), 70)
	swCl, err := RunSweep(m, core.Params{LMax: 20, Gauge: core.ConformalNewtonian, KeepSources: true}, ks, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := swCl.ClLOS([]int{2, 4, 8}, DefaultPrimordial(1.0), p.TCMB, m.TH.TauRec())
	if err != nil {
		t.Fatal(err)
	}
	scale, err := cl.NormalizeCOBE(18.0)
	if err != nil {
		t.Fatal(err)
	}

	kst := LogGrid(2e-4, 0.5, 26)
	swT, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.Synchronous}, kst, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	prim := DefaultPrimordial(1.0)
	prim.Amp = scale
	pk, err := swT.PowerSpectrum(prim, p.OmegaC, p.OmegaB)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := swT.Sigma8(pk, p.H)
	if err != nil {
		t.Fatal(err)
	}
	// The famous result: COBE-normalized standard CDM gives sigma8 ~ 1.2
	// (the excess over the observed ~0.6 was a leading argument against
	// SCDM). Accept a generous band around it.
	if s8 < 0.7 || s8 > 1.9 {
		t.Fatalf("sigma8 = %g, want ~1.2 for COBE-normalized SCDM", s8)
	}
}
