package cosmology

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"plinger/internal/constants"
)

func scdm(t *testing.T) *Background {
	t.Helper()
	bg, err := New(SCDM())
	if err != nil {
		t.Fatal(err)
	}
	return bg
}

func TestSCDMIsFlat(t *testing.T) {
	bg := scdm(t)
	if k := bg.OmegaK(); math.Abs(k) > 1e-12 {
		t.Fatalf("Omega_K = %g, want 0", k)
	}
}

func TestValidateCatchesBadInputs(t *testing.T) {
	bad := []Params{
		{},
		{H: -1, OmegaB: 0.05, TCMB: 2.7},
		{H: 0.5, OmegaB: -0.1, TCMB: 2.7},
		{H: 0.5, OmegaB: 0.05, TCMB: 0},
		{H: 0.5, OmegaB: 0.05, TCMB: 2.7, YHe: 0.9},
		{H: 0.5, OmegaB: 0.05, TCMB: 2.7, YHe: 0.24, NNuMassive: 1, MNuEV: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// TestValidateRejectsNonFinite puts NaN, +Inf and -Inf in every float field
// of a valid model in turn: each must be refused by name, by Validate and by
// both constructors, before any table is integrated.
func TestValidateRejectsNonFinite(t *testing.T) {
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		fld := typ.Field(i)
		if fld.Type.Kind() != reflect.Float64 {
			continue
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := MDM(1.0)
			reflect.ValueOf(&p).Elem().Field(i).SetFloat(bad)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), fld.Name) {
				t.Errorf("%s = %g: Validate returned %v, want an error naming the field", fld.Name, bad, err)
				continue
			}
			if _, err2 := New(p); err2 == nil || err2.Error() != err.Error() {
				t.Errorf("%s = %g: New returned %v, want %v", fld.Name, bad, err2, err)
			}
			if _, err2 := NewFlattened(p); err2 == nil || err2.Error() != err.Error() {
				t.Errorf("%s = %g: NewFlattened returned %v, want %v", fld.Name, bad, err2, err)
			}
		}
	}
}

func TestNonFlatRejected(t *testing.T) {
	p := SCDM()
	p.OmegaC = 0.3
	if _, err := New(p); err == nil {
		t.Fatal("want error for open model")
	}
	// But NewFlattened should absorb it.
	if _, err := NewFlattened(p); err != nil {
		t.Fatalf("NewFlattened: %v", err)
	}
}

func TestConformalAgeSCDM(t *testing.T) {
	// Einstein-de Sitter with h=0.5: tau_0 = 2/H0 = 11991 Mpc, slightly
	// reduced by the radiation era. Expect ~11700-12000 Mpc.
	bg := scdm(t)
	tau0 := bg.Tau0()
	if tau0 < 11000 || tau0 > 12100 {
		t.Fatalf("tau0 = %g Mpc, want ~11700-12000", tau0)
	}
}

func TestEdSAnalyticLimit(t *testing.T) {
	// SCDM is matter and radiation only, so the conformal time is closed:
	// tau(a) = 2 (sqrt(a + a_eq) - sqrt(a_eq)) / (H0 sqrt(Omega_m)), with
	// a_eq = Omega_r/Omega_m counting the massless neutrinos with the
	// photons. The tau table holds it to 1e-8 from the radiation era to
	// today (its Simpson steps reach ~1e-13 after the first few).
	bg := scdm(t)
	p := bg.P
	om := p.OmegaC + p.OmegaB
	aeq := (p.OmegaGamma() + p.OmegaNuMassless()) / om
	h0 := constants.HubbleInvMpc(p.H)
	for _, a := range []float64{1e-8, 1e-6, 1e-4, aeq, 1e-3, 1.0 / 1100, 1e-2, 0.1, 0.25, 0.5, 1} {
		want := 2 * (math.Sqrt(a+aeq) - math.Sqrt(aeq)) / (h0 * math.Sqrt(om))
		if got := bg.Tau(a); math.Abs(got-want) > 1e-8*want {
			t.Errorf("tau(a = %g) = %.12g Mpc, closed form %.12g", a, got, want)
		}
	}
}

func TestRadiationDominatedLimit(t *testing.T) {
	// Deep in the radiation era tau is proportional to a.
	bg := scdm(t)
	r := bg.Tau(2e-7) / bg.Tau(1e-7)
	if math.Abs(r-2.0) > 0.01 {
		t.Fatalf("tau ratio %g, want ~2 in RD", r)
	}
}

func TestTauAofTauRoundTrip(t *testing.T) {
	bg := scdm(t)
	for _, a := range []float64{1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0} {
		tau := bg.Tau(a)
		back := bg.AofTau(tau)
		if math.Abs(back-a) > 1e-5*a {
			t.Fatalf("round trip a=%g -> tau=%g -> %g", a, tau, back)
		}
	}
}

func TestHConfMonotoneDecreasing(t *testing.T) {
	// aH decreases with a until Lambda domination; SCDM has no Lambda.
	bg := scdm(t)
	prev := math.Inf(1)
	for _, a := range []float64{1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0} {
		h := bg.HConf(a)
		if h >= prev {
			t.Fatalf("HConf not decreasing at a=%g", a)
		}
		prev = h
	}
}

func TestHubbleToday(t *testing.T) {
	bg := scdm(t)
	// aH at a=1 equals H0 = 0.5/2997.92 Mpc^-1 (up to flatness fudge).
	want := 0.5 / 2997.92458
	got := bg.HConf(1.0)
	if math.Abs(got-want) > 1e-4*want {
		t.Fatalf("H0 = %g, want %g", got, want)
	}
}

func TestFriedmannClosure(t *testing.T) {
	// Components in Grho must sum to Total.
	bg := scdm(t)
	var g Grho
	for _, a := range []float64{1e-7, 1e-4, 1e-2, 1} {
		bg.Eval(a, &g)
		sum := g.C + g.B + g.G + g.Nu + g.HNu + g.Lambda
		if math.Abs(sum-g.Total) > 1e-12*g.Total {
			t.Fatalf("closure at a=%g: %g vs %g", a, sum, g.Total)
		}
	}
}

func TestMatterRadiationEquality(t *testing.T) {
	bg := scdm(t)
	aeq := bg.MatterRadiationEqualityA()
	// Omega_r = Omega_gamma(1+3*0.2271), h=0.5 => a_eq ~ 1.66e-4 / 0.9963.
	if aeq < 1.5e-4 || aeq > 1.9e-4 {
		t.Fatalf("a_eq = %g, want ~1.7e-4", aeq)
	}
	var g Grho
	bg.Eval(aeq, &g)
	matter := g.C + g.B
	rad := g.G + g.Nu
	if math.Abs(matter-rad) > 1e-10*rad {
		t.Fatalf("at a_eq matter %g != radiation %g", matter, rad)
	}
}

func TestRecombinationEraTau(t *testing.T) {
	// The paper's psi movie ends "shortly after recombination, at conformal
	// time 250 Mpc (1/a = 1028)". Check tau(a=1/1028) ~ 240-260 Mpc.
	bg := scdm(t)
	tau := bg.Tau(1.0 / 1028.0)
	if tau < 230 || tau > 270 {
		t.Fatalf("tau(recombination) = %g Mpc, paper says ~250", tau)
	}
}

func TestHConfDotMatchesNumericalDerivative(t *testing.T) {
	bg := scdm(t)
	for _, a := range []float64{1e-6, 1e-4, 1e-2, 0.3} {
		// dH/dtau = dH/da * da/dtau = dH/da * a^2 H / a... da/dtau = a*Hconf.
		eps := 1e-4 * a
		num := (bg.HConf(a+eps) - bg.HConf(a-eps)) / (2 * eps) * a * bg.HConf(a)
		got := bg.HConfDot(a)
		if math.Abs(got-num) > 2e-3*math.Abs(num) {
			t.Fatalf("HConfDot(a=%g) = %g, numeric %g", a, got, num)
		}
	}
}

func TestMassiveNeutrinoDensityToday(t *testing.T) {
	// Omega_nu h^2 ~= m_nu / 93.1 eV for one species.
	bg, err := NewFlattened(MDM(1.0))
	if err != nil {
		t.Fatal(err)
	}
	onuh2 := bg.OmegaHNu * bg.P.H * bg.P.H
	want := 1.0 / 93.1
	if math.Abs(onuh2-want) > 0.02*want {
		t.Fatalf("Omega_nu h^2 = %g, want ~%g", onuh2, want)
	}
}

func TestMassiveNeutrinoLimits(t *testing.T) {
	bg, err := NewFlattened(MDM(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// Relativistic limit: rho factor -> 1, pressure factor -> 1.
	r, p := bg.RhoNuMassive(1e-10)
	if math.Abs(r-1) > 1e-3 || math.Abs(p-1) > 1e-3 {
		t.Fatalf("relativistic limit: rho=%g p=%g, want 1,1", r, p)
	}
	// Non-relativistic: pressure/rho -> 0, rho grows linearly with a.
	r1, p1 := bg.RhoNuMassive(0.5)
	r2, p2 := bg.RhoNuMassive(1.0)
	if p1/r1 < p2/r2 {
		t.Fatal("equation of state should decrease with a")
	}
	if math.Abs(r2/r1-2.0) > 0.05 {
		t.Fatalf("NR rho should scale as a: ratio %g", r2/r1)
	}
	if p2/r2 > 0.01 {
		t.Fatalf("NR pressure fraction %g too large", p2/r2)
	}
}

func TestMassiveNeutrinoMonotone(t *testing.T) {
	bg, err := NewFlattened(MDM(0.3))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, a := range []float64{1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1} {
		r, _ := bg.RhoNuMassive(a)
		if r < prev {
			t.Fatalf("rho factor decreased at a=%g", a)
		}
		prev = r
	}
}

func TestMasslessVsMassiveBudget(t *testing.T) {
	// SCDM (3 massless) and MDM (2 massless + 1 massive) must have the same
	// radiation density deep in the radiation era.
	bgS := scdm(t)
	bgM, err := NewFlattened(MDM(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var gs, gm Grho
	a := 1e-9
	bgS.Eval(a, &gs)
	bgM.Eval(a, &gm)
	radS := gs.Nu + gs.HNu
	radM := gm.Nu + gm.HNu
	if math.Abs(radS-radM) > 1e-3*radS {
		t.Fatalf("early neutrino density differs: %g vs %g", radS, radM)
	}
}

func TestDlnF0DlnQ(t *testing.T) {
	bg, err := NewFlattened(MDM(1.0))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range bg.Q {
		// f0 = 1/(e^q+1): dln f0/dln q = -q e^q/(e^q+1).
		want := -q * math.Exp(q) / (math.Exp(q) + 1.0)
		if math.Abs(bg.DlnF0DlnQ[i]-want) > 1e-12*math.Abs(want) {
			t.Fatalf("dlnf0/dlnq node %d: %g want %g", i, bg.DlnF0DlnQ[i], want)
		}
	}
}
