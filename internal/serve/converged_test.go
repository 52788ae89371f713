package serve

import (
	"math"
	"testing"

	"plinger"
)

// TestDaemonEngineConvergedLadder holds the daemon's engine (its stock
// fast-engine options) on the converged request for the daemon's l range —
// LMaxCl 1300 and NK 1500, every l from 2 to 150 — to the k-quadrature
// ladder: doubling the range (2600/3000) and halving the spacing
// (1300/3000) each move every C_l by less than 1e-3.
func TestDaemonEngineConvergedLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("the converged ladder sweeps up to 3000 modes")
	}
	m, err := plinger.New(plinger.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	ls := make([]int, 0, 149)
	for l := 2; l <= 150; l++ {
		ls = append(ls, l)
	}
	spectrum := func(lmaxCl, nk int) *plinger.Spectrum {
		t.Helper()
		d := DefaultDefaults()
		o := ClRequest{LMaxCl: lmaxCl, NK: nk}.resolve(d).options(d)
		o.Ls = ls
		spec, err := m.ComputeSpectrum(o)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	ref := spectrum(1300, 1500)
	for _, c := range []struct {
		name       string
		lmaxCl, nk int
	}{
		{"range doubled", 2600, 3000},
		{"dk halved", 1300, 3000},
	} {
		got := spectrum(c.lmaxCl, c.nk)
		worst, worstL := 0.0, 0
		for i, l := range ref.L {
			if rel := math.Abs(got.Cl[i]/ref.Cl[i] - 1); rel > worst {
				worst, worstL = rel, l
			}
		}
		t.Logf("%s (%d/%d): worst |dC_l/C_l| %.2e at l = %d", c.name, c.lmaxCl, c.nk, worst, worstL)
		if worst >= 1e-3 {
			t.Errorf("%s (%d/%d) moves C_l by %.3e at l = %d, want < 1e-3", c.name, c.lmaxCl, c.nk, worst, worstL)
		}
	}
}
