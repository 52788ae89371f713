package recomb

import (
	"math"
	"testing"

	"plinger/internal/cosmology"
)

func history(t *testing.T) (*cosmology.Background, *History) {
	t.Helper()
	bg, err := cosmology.New(cosmology.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	h, err := Compute(bg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bg, h
}

func xeAtZ(h *History, z float64) float64 { return h.XeAt(1.0 / (1.0 + z)) }

func TestFullyIonizedEarly(t *testing.T) {
	_, h := history(t)
	// At z = 10^5 everything is ionized: x_e = 1 + 2 f_He.
	want := 1.0 + 2.0*h.FHe
	got := xeAtZ(h, 1e5)
	if math.Abs(got-want) > 1e-3*want {
		t.Fatalf("x_e(z=1e5) = %g, want %g", got, want)
	}
}

func TestHeliumRecombinesBeforeHydrogen(t *testing.T) {
	_, h := history(t)
	// HeIII -> HeII around z ~ 6000-8000; by z=3500 only single He+
	// at most, and by z=2200 helium is mostly neutral while H is ionized.
	if got := xeAtZ(h, 3500); got > 1.0+1.05*h.FHe {
		t.Fatalf("x_e(z=3500) = %g: HeIII should be gone", got)
	}
	got := xeAtZ(h, 2200)
	if got > 1.05 || got < 0.95 {
		t.Fatalf("x_e(z=2200) = %g, want ~1 (H ionized, He neutral)", got)
	}
}

func TestRecombinationEpoch(t *testing.T) {
	_, h := history(t)
	// x_e drops through 0.5 near z ~ 1200-1400 for SCDM-era parameters.
	zHalf := 0.0
	for z := 2000.0; z > 500; z -= 1 {
		if xeAtZ(h, z) < 0.5 {
			zHalf = z
			break
		}
	}
	if zHalf < 1150 || zHalf > 1450 {
		t.Fatalf("x_e=0.5 at z=%g, want ~1200-1400", zHalf)
	}
}

func TestFreezeOutResidualIonization(t *testing.T) {
	_, h := history(t)
	// The Peebles freeze-out leaves x_e ~ a few times 1e-4 for
	// Omega_b h^2 = 0.0125 (no reionization in the 1995 treatment).
	got := xeAtZ(h, 100)
	if got < 5e-5 || got > 2e-3 {
		t.Fatalf("x_e(z=100) = %g, want ~1e-4-1e-3", got)
	}
	// And it freezes: z=50 within a factor ~1.5 of z=100.
	r := xeAtZ(h, 50) / got
	if r < 0.5 || r > 1.1 {
		t.Fatalf("x_e not frozen: ratio %g", r)
	}
}

func TestXeMonotoneDecreasing(t *testing.T) {
	// x_e decreases monotonically apart from a sub-0.1% uptick allowed at
	// the Saha -> Peebles hand-off (the Peebles quasi-equilibrium sits a
	// hair above Saha because of the Ly-alpha escape factor).
	_, h := history(t)
	prev := math.Inf(1)
	for i := range h.Xe {
		if h.Xe[i] > prev*(1.0+1e-3) {
			t.Fatalf("x_e increased at lnA=%g: %g -> %g", h.LnA[i], prev, h.Xe[i])
		}
		prev = math.Min(prev, h.Xe[i])
	}
}

func TestSahaAgreesWithPeeblesAtHandOff(t *testing.T) {
	// Near the switch point the ODE solution should track Saha closely:
	// scan for the largest jump between adjacent x_p samples around
	// x_p ~ 0.9, which would reveal a bad hand-off.
	_, h := history(t)
	for i := 1; i < len(h.Xp); i++ {
		if h.Xp[i] < 0.995 && h.Xp[i] > 0.5 {
			jump := math.Abs(h.Xp[i]-h.Xp[i-1]) / h.Xp[i-1]
			if jump > 0.02 {
				t.Fatalf("x_p jump %g at index %d (x_p=%g)", jump, i, h.Xp[i])
			}
		}
	}
}

func TestBaryonTemperatureCoupledThenCools(t *testing.T) {
	_, h := history(t)
	// Before decoupling T_b = T_gamma.
	n := len(h.LnA)
	for i := 0; i < n; i++ {
		a := math.Exp(h.LnA[i])
		if a < 1e-4 {
			if math.Abs(h.TBaryon[i]-h.TGamma[i]) > 1e-6*h.TGamma[i] {
				t.Fatalf("T_b != T_gamma at a=%g", a)
			}
		}
	}
	// Today the baryons are much colder than the photons (adiabatic
	// cooling T_b ~ a^-2 after thermal decoupling at z ~ 150).
	if h.TBaryon[n-1] >= h.TGamma[n-1] {
		t.Fatalf("T_b(today)=%g not below T_gamma=%g", h.TBaryon[n-1], h.TGamma[n-1])
	}
	if h.TBaryon[n-1] > 0.5*h.TGamma[n-1] {
		t.Fatalf("T_b(today)=%g: expected strong adiabatic cooling", h.TBaryon[n-1])
	}
	if h.TBaryon[n-1] <= 0 {
		t.Fatal("T_b went non-positive")
	}
}

func TestHydrogenFollowsSahaAboveZ1600(t *testing.T) {
	// Above z ~ 1600 hydrogen sits in Saha equilibrium with the photons:
	// x_p x_e / (1 - x_p) = (2 pi m_e k T / h^2)^(3/2) e^(-chi_H/kT) / n_H,
	// coded here from CODATA values, with n_e = x_e n_H taken from the
	// history (helium's electrons included). The neutral fraction 1 - x_p,
	// which is what departs first, matches to 1e-6 at every grid point
	// from z = 1600 to 2500.
	bg, h := history(t)
	const (
		kB   = 1.380649e-23
		me   = 9.1093837015e-31
		hP   = 6.62607015e-34
		eV   = 1.602176634e-19
		mpcM = 3.085677581491367e22
	)
	checked := 0
	for i, lnA := range h.LnA {
		a := math.Exp(lnA)
		if z := 1/a - 1; z < 1600 || z > 2500 {
			continue
		}
		kt := kB * bg.P.TCMB / a
		nH := h.NH0 / (mpcM * mpcM * mpcM) / (a * a * a)
		s := math.Pow(2*math.Pi*me*kt/(hP*hP), 1.5) * math.Exp(-chiH*eV/kt) / nH
		neutral := h.Xe[i] / (s + h.Xe[i]) // 1 - x_p of x_p = s/(s + x_e)
		if got := 1 - h.Xp[i]; math.Abs(got/neutral-1) > 1e-6 {
			t.Fatalf("z = %.1f: neutral hydrogen fraction %.6g, Saha %.6g", 1/a-1, got, neutral)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d grid points between z = 1600 and 2500", checked)
	}
}

func TestSahaFactorMatchesHandComputation(t *testing.T) {
	// At T = 5000 K, chi = 13.6 eV: the exponential is e^-31.57... and the
	// prefactor (2 pi m k T/h^2)^1.5 ~ 4.1e20 m^-3 * T^1.5...
	// Cross-check against an independently coded formula.
	tK := 5000.0
	nH := 1.0e8 // m^-3
	got := newSaha(tK).factor(nH, chiH)
	kt := 1.380649e-23 * tK
	pre := math.Pow(2.0*math.Pi*9.1093837015e-31*kt/(6.62607015e-34*6.62607015e-34), 1.5)
	want := pre * math.Exp(-chiH*1.602176634e-19/kt) / nH
	if math.Abs(got-want) > 1e-7*want {
		t.Fatalf("sahaFactor = %g, want %g", got, want)
	}
}

func TestOptionsValidation(t *testing.T) {
	bg, err := cosmology.New(cosmology.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(bg, Options{AStart: 2}); err == nil {
		t.Fatal("want error for AStart >= 1")
	}
}

func TestHigherBaryonDensityRecombinesEarlier(t *testing.T) {
	p1 := cosmology.SCDM()
	p2 := cosmology.SCDM()
	p2.OmegaB = 0.10
	p2.OmegaC = 1.0 - p2.OmegaB - p2.OmegaGamma() - p2.OmegaNuMassless()
	find := func(p cosmology.Params) float64 {
		bg, err := cosmology.New(p)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Compute(bg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for z := 2000.0; z > 500; z -= 1 {
			if xeAtZ(h, z) < 0.5 {
				return z
			}
		}
		return 0
	}
	z1, z2 := find(p1), find(p2)
	if z2 <= z1 {
		t.Fatalf("more baryons should recombine earlier: z(Ob=0.05)=%g z(Ob=0.10)=%g", z1, z2)
	}
}

// TestRecombStepHalving anchors the Peebles integration under step halving
// (ROADMAP item 1(d)): the grid runs at 6000, 12000 and 24000 points, and
// through recombination and freeze-out the successive x_e differences must
// shrink by two per halving, the exponential-Euler step's first order. The
// default grid's own error is the 6000 − 12000 difference itself, about 1 %
// at z = 900–1000 (2 % from the Richardson limit); it is held to 1.2e-2.
func TestRecombStepHalving(t *testing.T) {
	bg, err := cosmology.New(cosmology.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	var hs [3]*History
	for i, n := range []int{6000, 12000, 24000} {
		if hs[i], err = Compute(bg, Options{N: n}); err != nil {
			t.Fatal(err)
		}
	}
	for z := 1400.0; z >= 200; z -= 100 {
		x1, x2, x4 := xeAtZ(hs[0], z), xeAtZ(hs[1], z), xeAtZ(hs[2], z)
		if r := (x1 - x2) / (x2 - x4); math.Abs(r-2) > 0.1 {
			t.Errorf("z=%g: step-halving ratio %.4f, want 2 ± 0.1 (x_e %g %g %g)", z, r, x1, x2, x4)
		}
		if d := math.Abs(x1/x2 - 1); d > 1.2e-2 {
			t.Errorf("z=%g: default grid off by %.3g from the halved one, want < 1.2e-2", z, d)
		}
	}
}

func BenchmarkCompute(b *testing.B) {
	bg, err := cosmology.New(cosmology.SCDM())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(bg, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAlphaBMagnitude(t *testing.T) {
	// alpha_B(10^4 K) ~ 2.6e-13 cm^3/s x fudge.
	got := alphaB(1e4) * 1e6 // cm^3/s
	if got < 2e-13 || got > 4e-13 {
		t.Fatalf("alpha_B(1e4 K) = %g cm^3/s", got)
	}
}
