package spectra

import (
	"math"
	"testing"

	"plinger/internal/core"
)

// TestLosGridNodes: the quadrature grid on both sides of the node
// threshold k = 0.03125. Either way it is strictly increasing, its weights
// integrate 1, tau and tau^3 exactly (Simpson per segment) and a point sits
// exactly on the end of the visibility window; at and above the threshold
// every point from iNode on is a coarse node of the Bessel table, below it
// the grid is the one this engine always had (frozen values).
func TestLosGridNodes(t *testing.T) {
	const tauStart, tauRec, tau0 = 20.0, 280.0, 11900.0
	for _, k := range []float64{0.004, 0.02, 0.03124, 0.03125, 0.05, 0.0837, 0.1, 0.27} {
		grid, w, iNode := losGrid(nil, nil, tauStart, tauRec, tau0, k, losNodeStep)
		n := len(grid)
		var m0, m1, m3 float64
		onWindowEnd := false
		for i, tau := range grid {
			if i > 0 && tau <= grid[i-1] {
				t.Fatalf("k=%g: grid[%d] = %v after %v", k, i, tau, grid[i-1])
			}
			onWindowEnd = onWindowEnd || tau == tauRec+losVisAfter
			m0 += w[i]
			m1 += w[i] * tau
			m3 += w[i] * tau * tau * tau
		}
		for p, c := range []struct{ got, want float64 }{
			{m0, tau0 - tauStart},
			{m1, (tau0*tau0 - tauStart*tauStart) / 2},
			{m3, (math.Pow(tau0, 4) - math.Pow(tauStart, 4)) / 4},
		} {
			if math.Abs(c.got/c.want-1) > 1e-12 {
				t.Errorf("k=%g: moment %d integrates to %.15g, want %.15g", k, p, c.got, c.want)
			}
		}
		if !onWindowEnd {
			t.Errorf("k=%g: no point on tauRec + losVisAfter", k)
		}
		if k < 0.03125 {
			if iNode != n {
				t.Errorf("k=%g: iNode %d of %d points below the node threshold", k, iNode, n)
			}
			continue
		}
		// An even count of intervals down to y = 0.
		if iNode >= n || (n-1-iNode)%2 != 0 {
			t.Errorf("k=%g: iNode %d of %d points", k, iNode, n)
		}
		if bridge := grid[iNode] - (tauRec + losVisAfter); bridge <= 0 || bridge > 2*losNodeStep/k {
			t.Errorf("k=%g: bridge of %g Mpc to the first node", k, bridge)
		}
		for p := iNode; p < n; p++ {
			m := k * (tau0 - grid[p]) / losNodeStep
			if math.Abs(m-float64(n-1-p)) > 1e-9 {
				t.Fatalf("k=%g: point %d at y/step = %.12g, want node %d", k, p, m, n-1-p)
			}
		}
	}

	grid, w, _ := losGrid(nil, nil, tauStart, tauRec, tau0, 0.02, losNodeStep)
	if len(grid) != 1273 {
		t.Fatalf("k=0.02: %d points, was 1273", len(grid))
	}
	for _, f := range []struct {
		i      int
		tau, w float64
	}{
		{0, 20, 2.9166666666666665},
		{17, 160.9933774834437, 1.324503311258278},
		{150, 293.1125827814569, 0.662251655629139},
		{446, 1994.9266247379455, 7.994409503843467},
		{447, 2006.9182389937107, 15.988819007686933},
		{900, 7439.1194968553455, 7.994409503843467},
		{1271, 11888.008385744235, 15.988819007686933},
		{1272, 11900, 3.9972047519217333},
	} {
		if grid[f.i] != f.tau || w[f.i] != f.w {
			t.Errorf("k=0.02: point %d is (%v, %v), was (%v, %v)", f.i, grid[f.i], w[f.i], f.tau, f.w)
		}
	}
}

// TestLOSQuadratureConverged: the claim of the losOscSamples comment. With
// exact kernels, Theta_l on the shipped grid and on one whose
// free-streaming step is halved agree to 2e-5 of the largest multipole.
func TestLOSQuadratureConverged(t *testing.T) {
	m := model(t)
	tau0, tauRec := m.BG.Tau0(), m.TH.TauRec()
	for _, k := range []float64{0.05, 0.08} {
		r, err := m.Evolve(core.Params{K: k, LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true})
		if err != nil {
			t.Fatal(err)
		}
		lmax := int(k*tau0) + 50
		var sc losScratch
		theta := func(nodeStep float64) []float64 {
			tau, src, err := sc.load(r)
			if err != nil {
				t.Fatal(err)
			}
			losAssemble(k, tau, src, tau0, tauRec, nodeStep, &sc)
			if sc.iNode > len(sc.grid)/4 {
				t.Fatalf("k=%g: node segment starts at point %d of %d", k, sc.iNode, len(sc.grid))
			}
			return append([]float64(nil), projectThetaExact(k, lmax, tau0, &sc)...)
		}
		shipped, halved := theta(losNodeStep), theta(losNodeStep/2)
		var scale, worst float64
		at := 0
		for l := 2; l <= lmax; l++ {
			scale = math.Max(scale, math.Abs(halved[l]))
			if d := math.Abs(shipped[l] - halved[l]); d > worst {
				worst, at = d, l
			}
		}
		t.Logf("k=%g: largest |dTheta_l| %.3g of the peak multipole, at l=%d", k, worst/scale, at)
		if worst > 2e-5*scale {
			t.Errorf("k=%g: Theta_%d moves by %.3g of the peak multipole under a halved step, budget 2e-5", k, at, worst/scale)
		}
	}
}
