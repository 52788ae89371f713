package ode

import (
	"math"
	"testing"
)

// smallestNormal is the smallest positive normal float64; anything nonzero
// under it is subnormal.
const smallestNormal = 2.2250738585072014e-308

// unreachable scales a linear system so far up that the floor cannot act on
// it: multiplying by a power of two is exact, so y*unreachable obeys the
// same equations with ATol*unreachable bit for bit, while flushBelow lands
// at 4e-324 of the original variables, under the smallest subnormal. It is
// how these tests run "the floor's threshold made unreachable" without a
// switch in the integrator.
var unreachable = math.Ldexp(1, 411)

// decay4: y' = -y on four components.
func decay4(t float64, y, dydt []float64) {
	for i, v := range y {
		dydt[i] = -v
	}
}

// TestFloorStoresExactZero: a decay followed 260 decades down ends at exact
// 0 where the unfloored run ends near e^-600 = 2.6e-261, tracks e^-t while
// the solution is above 1e-150, and takes the same accepted, rejected and
// evaluation counts.
// MaxStep keeps the steps inside the pair's stability interval once the
// absolute tolerance takes over, so the decay stays stiffness-free.
func TestFloorStoresExactZero(t *testing.T) {
	const rtol, atol, tEnd = 1e-8, 1e-160, 600.0
	run := func(scale float64, onStep func(t float64, y []float64)) ([]float64, Stats) {
		in := NewDVERK(rtol, atol*scale)
		in.MaxStep = 1
		in.OnStep = onStep
		y := []float64{scale, scale, scale, scale}
		st, err := in.Integrate(decay4, 0, tEnd, y)
		if err != nil {
			t.Fatal(err)
		}
		return y, st
	}
	var worst float64
	y, st := run(1, func(tt float64, y []float64) {
		for _, v := range y {
			if v != 0 && math.Abs(v) < flushBelow {
				t.Fatalf("t=%g: %g survived under the floor", tt, v)
			}
			if v > 1e-150 {
				worst = math.Max(worst, math.Abs(v/math.Exp(-tt)-1))
			}
		}
	})
	for i, v := range y {
		if v != 0 {
			t.Errorf("y[%d](%g) = %g, want exact 0", i, tEnd, v)
		}
	}
	// Measured 4.2e-8: the local errors of 345 time units, summed.
	if worst > 10*rtol {
		t.Errorf("above 1e-150 the solution is %.3g from e^-t, want within %g", worst, 10*rtol)
	}
	ref, stRef := run(unreachable, nil)
	if st != stRef {
		t.Errorf("work counts moved: %+v with the floor, %+v without", st, stRef)
	}
	for i, v := range ref {
		if got := v / unreachable; !(got > 1e-262 && got < 1e-260) {
			t.Errorf("unfloored y[%d](%g) = %g, want ~e^-600 = 2.6e-261", i, tEnd, got)
		}
	}
	t.Logf("%+v; worst relative error above 1e-150: %.3g; unfloored end value %.3g", st, worst, ref[0]/unreachable)
}

// ladder is the free-streaming hierarchy F_l' = k [l F_{l-1} - (l+1) F_{l+1}]
// / (2l+1) on n moments, closed with the MB95 truncation the Boltzmann
// right-hand side uses. Started from F_0 = 1 its solution is j_l(k t): a
// front at l ~ k t with everything above it falling like (k t)^l/(2l+1)!!.
func ladder(k float64, n int) Func {
	rA, rB := make([]float64, n), make([]float64, n)
	for l := range rA {
		rA[l] = float64(l) / float64(2*l+1)
		rB[l] = float64(l+1) / float64(2*l+1)
	}
	return func(t float64, f, df []float64) {
		df[0] = -k * f[1]
		for l := 1; l < n-1; l++ {
			df[l] = k * (rA[l]*f[l-1] - rB[l]*f[l+1])
		}
		df[n-1] = k*f[n-2] - float64(n)/t*f[n-1]
	}
}

// ladderN is the width of the brute read-off's state: three 451-moment
// hierarchies and the seven metric and matter variables.
const ladderN = 1360

// TestLadderStateHoldsNoSubnormal: while the front climbs a 1360-moment
// ladder the band above it decays through the whole float64 range, and no
// accepted state carries any of it as a subnormal.
func TestLadderStateHoldsNoSubnormal(t *testing.T) {
	in := NewDVERK(1e-6, 1e-12)
	var steps, zeros int
	in.OnStep = func(tt float64, y []float64) {
		steps++
		for l, v := range y {
			if v != 0 && math.Abs(v) < smallestNormal {
				t.Fatalf("t=%g: F_%d = %g is subnormal", tt, l, v)
			}
			if v == 0 {
				zeros++
			}
		}
	}
	y := make([]float64, ladderN)
	y[0] = 1
	if _, err := in.Integrate(ladder(1, ladderN), 1e-3, 60, y); err != nil {
		t.Fatal(err)
	}
	// The test has teeth only if the band was there to flush: the moments
	// far above the front must have been zeroed, and the front itself kept.
	if zeros == 0 || y[ladderN-1] != 0 {
		t.Fatalf("no moment was flushed (%d zeros over %d steps, F_%d = %g)", zeros, steps, ladderN-1, y[ladderN-1])
	}
	if math.Abs(y[40]) < 1e-6 {
		t.Fatalf("F_40(60) = %g: the front did not arrive", y[40])
	}
}

// BenchmarkStepFreeStreamingLadder times one trial step of the ladder with
// the front low (l ~ 20, almost every moment in or above the decaying band)
// and with the front past the last moment (no small number anywhere). The
// two cost the same per step; they differed about 2x while the band was
// carried as subnormals.
func BenchmarkStepFreeStreamingLadder(b *testing.B) {
	for _, c := range []struct {
		name   string
		t0, t1 float64
	}{
		{"early", 20, 25},
		{"late", 1500, 1505},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := ladder(1, ladderN)
			in := NewDVERK(1e-6, 1e-12)
			y0 := make([]float64, ladderN)
			y0[0] = 1
			if _, err := in.Integrate(f, 1e-3, c.t0, y0); err != nil {
				b.Fatal(err)
			}
			y := make([]float64, ladderN)
			var trials int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(y, y0)
				st, err := in.Integrate(f, c.t0, c.t1, y)
				if err != nil {
					b.Fatal(err)
				}
				trials += st.Steps + st.Rejected
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(trials), "ns/step")
		})
	}
}
