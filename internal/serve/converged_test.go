package serve

import (
	"math"
	"testing"

	"plinger"
)

// ladderRung is one request of a k-quadrature ladder.
type ladderRung struct {
	name       string
	lmaxCl, nk int
}

// checkLadder computes the spectrum of ref and of every rung on every l in
// ls and requires each rung to move every C_l by less than 1e-3.
func checkLadder(t *testing.T, ls []int, options func(lmaxCl, nk int) plinger.SpectrumOptions, ref ladderRung, rungs ...ladderRung) {
	t.Helper()
	m, err := plinger.New(plinger.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	spectrum := func(r ladderRung) *plinger.Spectrum {
		t.Helper()
		o := options(r.lmaxCl, r.nk)
		o.Ls = ls
		spec, err := m.ComputeSpectrum(o)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	base := spectrum(ref)
	for _, c := range rungs {
		got := spectrum(c)
		worst, worstL := 0.0, 0
		for i, l := range base.L {
			if rel := math.Abs(got.Cl[i]/base.Cl[i] - 1); rel > worst {
				worst, worstL = rel, l
			}
		}
		t.Logf("%s (%d/%d): worst |dC_l/C_l| %.2e at l = %d", c.name, c.lmaxCl, c.nk, worst, worstL)
		if worst >= 1e-3 {
			t.Errorf("%s (%d/%d) moves C_l by %.3e at l = %d, want < 1e-3", c.name, c.lmaxCl, c.nk, worst, worstL)
		}
	}
}

// everyL lists the multipoles 2..lmax.
func everyL(lmax int) []int {
	ls := make([]int, 0, lmax-1)
	for l := 2; l <= lmax; l++ {
		ls = append(ls, l)
	}
	return ls
}

// TestDaemonEngineConvergedLadder holds the daemon's engine (its stock
// fast-engine options) on the converged request for the daemon's l range —
// LMaxCl 1300 and NK 1500, every l from 2 to 150 — to the k-quadrature
// ladder: doubling the range (2600/3000) and halving the spacing
// (1300/3000) each move every C_l by less than 1e-3.
func TestDaemonEngineConvergedLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("the converged ladder sweeps up to 3000 modes")
	}
	d := DefaultDefaults()
	options := func(lmaxCl, nk int) plinger.SpectrumOptions {
		return ClRequest{LMaxCl: lmaxCl, NK: nk}.resolve(d).options(d)
	}
	checkLadder(t, everyL(150), options, ladderRung{"converged", 1300, 1500},
		ladderRung{"range doubled", 2600, 3000},
		ladderRung{"dk halved", 1300, 3000})
}

// TestSachsWolfePlateau holds the converged daemon request (LMaxCl 1300, NK
// 1500, the daemon's engine, COBE-normalized to 18 microkelvin) to the n = 1
// Sachs–Wolfe plateau: l(l+1)C_l in units of its quadrupole value 6 C_2 is
// non-decreasing for 2 <= l <= 30 and lies in [1, 1.15] up to l = 10. The
// stock 150/130 grid fails it, dipping to 0.966 at l = 3.
func TestSachsWolfePlateau(t *testing.T) {
	d := DefaultDefaults()
	o := ClRequest{LMaxCl: 1300, NK: 1500}.resolve(d).options(d)
	o.Ls = everyL(150)
	m, err := plinger.New(plinger.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := m.ComputeSpectrum(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.NormalizeCOBE(18); err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, l := range spec.L[:29] {
		r := float64(l*(l+1)) * spec.Cl[i] / (6 * spec.Cl[0])
		if r < prev {
			t.Errorf("l(l+1)C_l/6C_2 falls from %.4f to %.4f at l = %d", prev, r, l)
		}
		if l <= 10 && (r < 1 || r > 1.15) {
			t.Errorf("l(l+1)C_l/6C_2 = %.4f at l = %d, want it in [1, 1.15]", r, l)
		}
		prev = r
	}
	t.Logf("l(l+1)C_l/6C_2: %.3f at l = 10, %.3f at l = 30", 110*spec.Cl[8]/(6*spec.Cl[0]), prev)
}

// TestPaperRequestConvergedLadder holds the paper-scale request with every
// fast switch on — LMaxCl 3000 and NK 3200, every l from 2 to 1000 — to the
// same ladder: doubling the range (6200/6400) and halving the spacing
// (3000/6400) each move every C_l by less than 1e-3.
func TestPaperRequestConvergedLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper-scale ladder sweeps up to 6400 modes")
	}
	options := func(lmaxCl, nk int) plinger.SpectrumOptions {
		return plinger.SpectrumOptions{LMaxCl: lmaxCl, NK: nk,
			FastLOS: true, FastEvolve: true, KRefine: 6, LSpline: true, KBatch: 4}
	}
	checkLadder(t, everyL(1000), options, ladderRung{"converged", 3000, 3200},
		ladderRung{"range doubled", 6200, 6400},
		ladderRung{"dk halved", 3000, 6400})
}
