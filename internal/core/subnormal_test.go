package core

import (
	"math"
	"testing"

	"plinger/internal/ode"
)

// scaledDVERK is a caller-supplied Params.Integrator that shows the test
// every accepted state and integrates the system multiplied by scale, a
// power of two. The multiplication is exact, so with the absolute tolerance
// scaled alike the integrator walks the same trajectory bit for bit; what
// moves is where its subnormal floor (ode.Adaptive) sits in the mode's own
// variables. scale 1 is the integrator as the sweep runs it; 2^411 puts the
// floor at 4e-324, under the smallest subnormal, which is the run without a
// floor.
type scaledDVERK struct {
	ad     *ode.Adaptive
	scale  float64
	see    func(tau float64, y []float64)
	onStep func(tau float64, y []float64)
	z, y   []float64
}

func newScaledDVERK(scale float64, see func(tau float64, y []float64)) *scaledDVERK {
	ad := ode.NewDVERK(1e-6, 1e-12*scale)
	ad.CarryStep = true
	return &scaledDVERK{ad: ad, scale: scale, see: see}
}

func (s *scaledDVERK) Name() string { return s.ad.Name() }

func (s *scaledDVERK) SetOnStep(fn func(tau float64, y []float64)) { s.onStep = fn }

// unscale fills s.y with z in the mode's own variables.
func (s *scaledDVERK) unscale(z []float64) []float64 {
	s.y = s.y[:0]
	for _, v := range z {
		s.y = append(s.y, v/s.scale)
	}
	return s.y
}

func (s *scaledDVERK) Integrate(f ode.Func, t0, t1 float64, y []float64) (ode.Stats, error) {
	s.z = s.z[:0]
	for _, v := range y {
		s.z = append(s.z, v*s.scale)
	}
	s.ad.OnStep = func(tau float64, z []float64) {
		y := s.unscale(z)
		if s.see != nil {
			s.see(tau, y)
		}
		if s.onStep != nil {
			s.onStep(tau, y)
		}
	}
	st, err := s.ad.Integrate(func(tau float64, z, dz []float64) {
		f(tau, s.unscale(z), dz)
		for i := range dz {
			dz[i] *= s.scale
		}
	}, t0, t1, s.z)
	copy(y, s.unscale(s.z))
	return st, err
}

// TestBruteHierarchyHoldsNoSubnormal: the read-off's fixed 450-moment
// hierarchies, whose leading edge decays through the whole float64 range
// above l ~ k tau, never show a subnormal in an accepted state — and the
// floor that sees to it moves nothing: work counts, the constraint monitor
// and every final moment that is not itself under the floor are those of
// the run without it, bit for bit.
func TestBruteHierarchyHoldsNoSubnormal(t *testing.T) {
	const smallestNormal = 2.2250738585072014e-308
	m := model(t)
	for _, k := range []float64{0.002, 0.03} {
		run := func(scale float64, see func(tau float64, y []float64)) *Result {
			res, err := m.Evolve(Params{K: k, LMax: 450, Gauge: Synchronous, Integrator: newScaledDVERK(scale, see)})
			if err != nil {
				t.Fatalf("k=%g scale=%g: %v", k, scale, err)
			}
			return res
		}
		var states, zeros int
		got := run(1, func(tau float64, y []float64) {
			states++
			for i, v := range y {
				if v != 0 && math.Abs(v) < smallestNormal {
					t.Fatalf("k=%g tau=%g: y[%d] = %g is subnormal", k, tau, i, v)
				}
				if v == 0 {
					zeros++
				}
			}
		})
		if states != got.Stats.Steps || zeros == 0 {
			t.Fatalf("k=%g: saw %d of %d accepted states, %d flushed entries", k, states, got.Stats.Steps, zeros)
		}
		ref := run(math.Ldexp(1, 411), nil)
		if got.Stats != ref.Stats || got.MaxConstraintResidual != ref.MaxConstraintResidual {
			t.Errorf("k=%g: %+v residual %g with the floor, %+v residual %g without",
				k, got.Stats, got.MaxConstraintResidual, ref.Stats, ref.MaxConstraintResidual)
		}
		// A final moment may differ only where it is itself within reach of
		// the floor: by less than the floor, which is invisible from 1e-184
		// up. At k = 0.03 every moment ends above 1e-20 and all are equal.
		var differ int
		var worst float64
		compare := func(l int, got, ref float64) {
			if got == ref {
				return
			}
			differ++
			worst = math.Max(worst, math.Abs(got-ref))
			if math.Abs(ref) > 1e-184 {
				t.Errorf("k=%g l=%d: %g with the floor, %g without", k, l, got, ref)
			}
		}
		for l := range ref.ThetaL {
			compare(l, got.ThetaL[l], ref.ThetaL[l])
			compare(l, got.ThetaPL[l], ref.ThetaPL[l])
		}
		if worst >= 1e-200 || (k == 0.03 && differ != 0) {
			t.Errorf("k=%g: %d final moments differ, by up to %g", k, differ, worst)
		}
		t.Logf("k=%g: %+v, %d entries zero across %d states, %d final moments differ by up to %g", k, got.Stats, zeros, states, differ, worst)
	}
}
