package thermo

import (
	"math"
	"testing"

	"plinger/internal/cosmology"
	"plinger/internal/recomb"
)

func setup(t *testing.T) *Thermo {
	t.Helper()
	bg, err := cosmology.New(cosmology.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	th, err := New(bg, recomb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestOpacityScalesBeforeRecombination(t *testing.T) {
	th := setup(t)
	// While fully ionized, kappa-dot ~ a^-2.
	r := th.Opacity(1e-6) / th.Opacity(2e-6)
	if math.Abs(r-4.0) > 0.01 {
		t.Fatalf("opacity ratio %g, want 4", r)
	}
}

func TestOpacityDropsThroughRecombination(t *testing.T) {
	th := setup(t)
	before := th.Opacity(1.0 / 1300.0)
	after := th.Opacity(1.0 / 500.0)
	if after > 1e-2*before {
		t.Fatalf("opacity should collapse through recombination: %g -> %g", before, after)
	}
}

func TestOpticalDepthHugeEarlySmallLate(t *testing.T) {
	th := setup(t)
	if k := th.OpticalDepth(1e-5); k < 100 {
		t.Fatalf("optical depth at a=1e-5 is %g, want >> 1", k)
	}
	if k := th.OpticalDepth(0.5); k > 0.1 {
		t.Fatalf("optical depth at a=0.5 is %g, want << 1 (no reionization)", k)
	}
	if k := th.OpticalDepth(1.0); k != math.Exp(th.depth.Eval(th.lnAMax)) {
		_ = k // value covered above; here we only require no panic at the edge
	}
}

func TestOpticalDepthMonotone(t *testing.T) {
	th := setup(t)
	prev := math.Inf(1)
	for _, a := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.9} {
		k := th.OpticalDepth(a)
		if k >= prev {
			t.Fatalf("optical depth not decreasing at a=%g", a)
		}
		prev = k
	}
}

func TestVisibilityPeaksAtRecombination(t *testing.T) {
	th := setup(t)
	zRec := 1.0/th.ARec() - 1.0
	if zRec < 1000 || zRec > 1200 {
		t.Fatalf("visibility peaks at z=%g, want z* in [1000, 1200]", zRec)
	}
	// The paper's movie ends "shortly after recombination, at conformal
	// time 250 Mpc"; the visibility peak should sit near there.
	if th.TauRec() < 200 || th.TauRec() > 320 {
		t.Fatalf("tau_rec = %g Mpc, want ~250", th.TauRec())
	}
}

func TestVisibilityNormalization(t *testing.T) {
	// integral g dtau over all time = 1 - e^-kappa(start) = 1, to 1e-4.
	// Simpson in ln a (dtau = dln a / (aH)) at 20000 steps has converged:
	// what is left (7e-5 on SCDM) is the optical depth's trapezoid sum
	// against the opacity spline.
	th := setup(t)
	bg := th.BG
	const n = 20000
	lnAMin, lnAMax := math.Log(1e-8), 0.0
	dl := (lnAMax - lnAMin) / n
	sum := 0.0
	for i := 0; i <= n; i++ {
		a := math.Exp(lnAMin + float64(i)*dl)
		w := 2.0 + 2.0*float64(i%2)
		if i == 0 || i == n {
			w = 1
		}
		sum += w * th.Visibility(a) / bg.HConf(a)
	}
	sum *= dl / 3
	want := 1 - math.Exp(-th.OpticalDepth(1e-8))
	if math.Abs(sum-want) > 1e-4 {
		t.Fatalf("integral g dtau = %.8f, want %.8f to 1e-4", sum, want)
	}
}

func TestVisibilityWidth(t *testing.T) {
	// The last-scattering shell of SCDM is Delta z ~ 200 thick (FWHM of
	// the visibility in z, 228 here), a thin shell in conformal time: its
	// FWHM there (34 Mpc) is a small fraction of tau_rec.
	th := setup(t)
	gMax := th.Visibility(th.ARec())
	var zLo, zHi float64
	for z := 2000.0; z > 600; z -= 0.25 {
		if th.Visibility(1/(1+z)) > gMax/2 {
			if zHi == 0 {
				zHi = z
			}
			zLo = z
		}
	}
	if dz := zHi - zLo; dz < 150 || dz > 300 {
		t.Fatalf("visibility FWHM Delta z = %g (z %g..%g), want 150..300", dz, zLo, zHi)
	}
	dTau := th.BG.Tau(1/(1+zLo)) - th.BG.Tau(1/(1+zHi))
	if r := dTau / th.TauRec(); r < 0.08 || r > 0.25 {
		t.Fatalf("visibility FWHM = %g Mpc, %.3f of tau_rec %g: want 0.08..0.25", dTau, r, th.TauRec())
	}
}

func TestSoundSpeedTightCouplingValue(t *testing.T) {
	th := setup(t)
	// While T_b = T_gamma and the gas is ionized H+He:
	// c_s^2 = (kT/mu m_H c^2)(1 - 1/3 dlnT/dlna) with dlnT/dlna = -1, so
	// c_s^2 = (4/3) kT/(mu m_H c^2). Check at a = 1e-5.
	a := 1e-5
	tg := th.BG.P.TCMB / a
	fHe := th.Hist.FHe
	xe := 1.0 + 2.0*fHe
	mu := (1.0 + 4.0*fHe) / (1.0 + fHe + xe)
	want := 4.0 / 3.0 * 1.380649e-23 * tg / (mu * 1.6735575e-27 * 2.99792458e8 * 2.99792458e8)
	got := th.Cs2(a)
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("c_s^2(1e-5) = %g, want %g", got, want)
	}
}

func TestSoundSpeedNonNegativeEverywhere(t *testing.T) {
	th := setup(t)
	for z := 0.0; z < 1e6; z = z*1.3 + 1 {
		a := 1.0 / (1.0 + z)
		if th.Cs2(a) < 0 {
			t.Fatalf("negative c_s^2 at z=%g", z)
		}
	}
}

func TestSoundSpeedDropsAfterDecoupling(t *testing.T) {
	th := setup(t)
	// After thermal decoupling T_b ~ a^-2 so c_s^2 falls faster than the
	// tightly-coupled a^-1 scaling.
	early := th.Cs2(1.0/1101.0) * (1.0 / 1101.0)
	late := th.Cs2(1.0/31.0) * (1.0 / 31.0)
	if late > early {
		t.Fatalf("c_s^2 * a should decrease after decoupling: %g -> %g", early, late)
	}
}

func BenchmarkNew(b *testing.B) {
	bg, err := cosmology.New(cosmology.SCDM())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(bg, recomb.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClampOutsideTable(t *testing.T) {
	th := setup(t)
	// Far outside the table, values clamp to the edges without panic.
	if v := th.Opacity(1e-12); !(v > 0) {
		t.Fatalf("Opacity clamp: %g", v)
	}
	if v := th.Cs2(2.0); v < 0 {
		t.Fatalf("Cs2 clamp: %g", v)
	}
}
