package ode

import (
	"errors"
	"math"
	"testing"
)

// expDecay: y' = -y, y(0)=1 => y(t) = e^-t.
func expDecay(t float64, y, dydt []float64) { dydt[0] = -y[0] }

// harmonic: y” = -w^2 y as a 2-system.
func harmonic(w float64) Func {
	return func(t float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -w * w * y[0]
	}
}

func TestDVERKExponential(t *testing.T) {
	in := NewDVERK(1e-10, 1e-12)
	y := []float64{1}
	st, err := in.Integrate(expDecay, 0, 5, y)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-5)
	if math.Abs(y[0]-want) > 1e-9*want {
		t.Fatalf("y(5) = %g, want %g", y[0], want)
	}
	if st.Steps == 0 || st.Evals < 8*st.Steps {
		t.Fatalf("implausible stats %+v", st)
	}
}

func TestDVERKHarmonicOscillatorEnergy(t *testing.T) {
	in := NewDVERK(1e-9, 1e-12)
	w := 3.0
	y := []float64{1, 0}
	if _, err := in.Integrate(harmonic(w), 0, 20, y); err != nil {
		t.Fatal(err)
	}
	// Energy E = (y'^2 + w^2 y^2)/2 conserved to tolerance.
	e := 0.5 * (y[1]*y[1] + w*w*y[0]*y[0])
	if math.Abs(e-0.5*w*w) > 1e-6*w*w {
		t.Fatalf("energy drift: %g vs %g", e, 0.5*w*w)
	}
	// Phase check: y(20) = cos(60).
	if math.Abs(y[0]-math.Cos(60)) > 1e-6 {
		t.Fatalf("y(20) = %g, want %g", y[0], math.Cos(60))
	}
}

// Convergence order: with tolerances so tight the controller never rejects,
// halving a fixed step should reduce the local error by ~2^6 for Verner 6(5).
// We check global order ~6 via fixed-step integration through the guts of
// the adaptive machinery (MaxStep = InitialStep forces fixed h).
func orderEstimate(t *testing.T, mk func() *Adaptive, hs []float64) float64 {
	t.Helper()
	errs := make([]float64, len(hs))
	for i, h := range hs {
		in := mk()
		in.InitialStep = h
		in.MaxStep = h
		// Enormous tolerances so every step is accepted at exactly h.
		in.RTol = 1
		in.ATol = 1e10
		y := []float64{1, 0}
		if _, err := in.Integrate(harmonic(1), 0, 1, y); err != nil {
			t.Fatal(err)
		}
		errs[i] = math.Abs(y[0] - math.Cos(1))
	}
	// Fit order from the first and last step sizes.
	return math.Log(errs[0]/errs[len(errs)-1]) / math.Log(hs[0]/hs[len(hs)-1])
}

func TestDVERKOrderSix(t *testing.T) {
	p := orderEstimate(t, func() *Adaptive { return NewDVERK(0, 0) },
		[]float64{1.0 / 8, 1.0 / 16, 1.0 / 32})
	if p < 5.5 || p > 7.0 {
		t.Fatalf("DVERK observed order %.2f, want ~6", p)
	}
}

func TestRKF45OrderFive(t *testing.T) {
	// The propagated solution of RKF45 as implemented is the 5th-order one.
	p := orderEstimate(t, func() *Adaptive { return NewRKF45(0, 0) },
		[]float64{1.0 / 8, 1.0 / 16, 1.0 / 32})
	if p < 4.3 || p > 6.0 {
		t.Fatalf("RKF45 observed order %.2f, want ~5", p)
	}
}

func TestRK4OrderFour(t *testing.T) {
	errAt := func(n int) float64 {
		in := NewRK4(n)
		y := []float64{1, 0}
		if _, err := in.Integrate(harmonic(1), 0, 1, y); err != nil {
			t.Fatal(err)
		}
		return math.Abs(y[0] - math.Cos(1))
	}
	e1, e2 := errAt(8), errAt(16)
	p := math.Log(e1/e2) / math.Log(2)
	if p < 3.5 || p > 4.5 {
		t.Fatalf("RK4 observed order %.2f, want ~4", p)
	}
}

func TestToleranceControlsError(t *testing.T) {
	// Tighter tolerance must give a smaller global error and more steps.
	run := func(rtol float64) (float64, int) {
		in := NewDVERK(rtol, 1e-14)
		y := []float64{1, 0}
		st, err := in.Integrate(harmonic(2), 0, 10, y)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(y[0] - math.Cos(20)), st.Steps
	}
	eLoose, nLoose := run(1e-4)
	eTight, nTight := run(1e-10)
	if eTight >= eLoose {
		t.Fatalf("tight tolerance error %g not below loose %g", eTight, eLoose)
	}
	if nTight <= nLoose {
		t.Fatalf("tight tolerance steps %d not above loose %d", nTight, nLoose)
	}
}

func TestStiffProblemNeedsManySteps(t *testing.T) {
	// y' = -1000(y - cos t) - sin t; solution settles to cos t. An explicit
	// method must take steps ~ 1/1000, so the step count reflects stiffness.
	stiff := func(t float64, y, dydt []float64) {
		dydt[0] = -1000.0*(y[0]-math.Cos(t)) - math.Sin(t)
	}
	in := NewDVERK(1e-6, 1e-9)
	y := []float64{2}
	st, err := in.Integrate(stiff, 0, 1, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.Cos(1)) > 1e-4 {
		t.Fatalf("stiff solution %g, want %g", y[0], math.Cos(1))
	}
	if st.Steps < 100 {
		t.Fatalf("suspiciously few steps (%d) for a stiff problem", st.Steps)
	}
}

func TestMaxStepsRespected(t *testing.T) {
	in := NewDVERK(1e-12, 1e-14)
	in.maxSteps = 5
	y := []float64{1, 0}
	_, err := in.Integrate(harmonic(50), 0, 100, y)
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("want ErrMaxSteps, got %v", err)
	}
}

func TestBackwardsRejected(t *testing.T) {
	in := NewDVERK(1e-6, 1e-9)
	y := []float64{1}
	if _, err := in.Integrate(expDecay, 1, 0, y); err == nil {
		t.Fatal("want error for backwards integration")
	}
}

func TestZeroLengthIntervalIsNoop(t *testing.T) {
	in := NewDVERK(1e-6, 1e-9)
	y := []float64{3}
	st, err := in.Integrate(expDecay, 2, 2, y)
	if err != nil || y[0] != 3 || st.Evals != 0 {
		t.Fatalf("no-op failed: y=%v st=%+v err=%v", y, st, err)
	}
}

func TestOnStepMonotoneTimes(t *testing.T) {
	in := NewDVERK(1e-8, 1e-10)
	var times []float64
	in.OnStep = func(tm float64, y []float64) { times = append(times, tm) }
	y := []float64{1, 0}
	if _, err := in.Integrate(harmonic(5), 0, 3, y); err != nil {
		t.Fatal(err)
	}
	if len(times) == 0 {
		t.Fatal("OnStep never called")
	}
	prev := 0.0
	for _, tm := range times {
		if tm <= prev {
			t.Fatalf("times not strictly increasing: %g after %g", tm, prev)
		}
		prev = tm
	}
	if math.Abs(times[len(times)-1]-3) > 1e-12 {
		t.Fatalf("final OnStep time %g != 3", times[len(times)-1])
	}
}

func TestLinearSystemExactness(t *testing.T) {
	// y' = A y for a rotation: exactly solvable; DVERK should track it to
	// the requested tolerance over many periods.
	in := NewDVERK(1e-11, 1e-13)
	y := []float64{0, 1}
	if _, err := in.Integrate(harmonic(1), 0, 8*math.Pi, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]) > 1e-7 || math.Abs(y[1]-1) > 1e-7 {
		t.Fatalf("after 4 periods: y = %v, want (0,1)", y)
	}
}

func TestRKF45MatchesDVERKOnSmoothProblem(t *testing.T) {
	run := func(in Integrator) float64 {
		y := []float64{1}
		if _, err := in.Integrate(expDecay, 0, 3, y); err != nil {
			t.Fatal(err)
		}
		return y[0]
	}
	a := run(NewDVERK(1e-9, 1e-12))
	b := run(NewRKF45(1e-9, 1e-12))
	if math.Abs(a-b) > 1e-7 {
		t.Fatalf("integrators disagree: %g vs %g", a, b)
	}
}

func TestNames(t *testing.T) {
	if NewDVERK(0, 0).Name() == "" || NewRKF45(0, 0).Name() == "" || NewRK4(1).Name() == "" {
		t.Fatal("integrators must be named for benchmark tables")
	}
}

// The tableau row-sum consistency conditions c_i = sum_j a_ij must hold for
// any Runge-Kutta method; this guards against transcription errors in the
// DVERK coefficients.
func TestTableauConsistency(t *testing.T) {
	for _, tab := range []tableau{verner65, fehlberg45} {
		for s := 1; s < tab.stages; s++ {
			sum := 0.0
			for _, a := range tab.a[s] {
				sum += a
			}
			if math.Abs(sum-tab.c[s]) > 1e-12 {
				t.Errorf("%s: row %d sums to %g, want c=%g", tab.name, s, sum, tab.c[s])
			}
		}
		bs, bh := 0.0, 0.0
		for s := 0; s < tab.stages; s++ {
			bs += tab.b[s]
			bh += tab.bhat[s]
		}
		if math.Abs(bs-1) > 1e-12 || math.Abs(bh-1) > 1e-12 {
			t.Errorf("%s: weight sums %g, %g, want 1", tab.name, bs, bh)
		}
	}
}

// TestPIControllerCutsRejections: on a problem with a sharply varying
// right-hand side the elementary controller oscillates between optimistic
// growth and rejection; the PI controller must cut the rejected fraction
// without losing accuracy.
func TestPIControllerCutsRejections(t *testing.T) {
	// y' = -lambda (y - sin t) + cos t with a stiff-ish pull toward sin t.
	f := func(tt float64, y, dy []float64) {
		dy[0] = -40.0*(y[0]-math.Sin(tt)) + math.Cos(tt)
	}
	run := func(pi bool) (Stats, float64) {
		ad := NewDVERK(1e-7, 1e-12)
		ad.PI = pi
		y := []float64{0}
		st, err := ad.Integrate(f, 0, 20, y)
		if err != nil {
			t.Fatal(err)
		}
		return st, y[0]
	}
	plain, yPlain := run(false)
	pi, yPI := run(true)
	if plain.Rejected > 5 && pi.Rejected >= plain.Rejected {
		t.Fatalf("PI rejected %d steps, elementary %d", pi.Rejected, plain.Rejected)
	}
	want := math.Sin(20.0)
	if math.Abs(yPI-want) > 1e-5 || math.Abs(yPlain-want) > 1e-5 {
		t.Fatalf("solutions drifted: plain %g, PI %g, want %g", yPlain, yPI, want)
	}
}

// TestCarryStepResumes: with CarryStep a follow-on Integrate call must not
// ramp up from InitialStep again — the second leg of a split interval
// should cost about as many steps as the same leg of an unsplit run.
func TestCarryStepResumes(t *testing.T) {
	f := func(tt float64, y, dy []float64) { dy[0] = -y[0] }
	count := func(carry bool) int {
		ad := NewDVERK(1e-8, 1e-12)
		ad.InitialStep = 1e-6
		ad.CarryStep = carry
		y := []float64{1}
		st1, err := ad.Integrate(f, 0, 5, y)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := ad.Integrate(f, 5, 10, y)
		if err != nil {
			t.Fatal(err)
		}
		_ = st1
		return st2.Steps
	}
	carried := count(true)
	restarted := count(false)
	if carried >= restarted {
		t.Fatalf("carried second leg took %d steps, restart took %d", carried, restarted)
	}
}

// TestStepObserverContract: both integrators implement StepObserver and
// deliver every accepted step through SetOnStep.
func TestStepObserverContract(t *testing.T) {
	f := func(tt float64, y, dy []float64) { dy[0] = 1 }
	for _, integ := range []Integrator{NewDVERK(1e-6, 1e-12), NewRK4(32)} {
		obs, ok := integ.(StepObserver)
		if !ok {
			t.Fatalf("%s does not implement StepObserver", integ.Name())
		}
		var n int
		last := 0.0
		obs.SetOnStep(func(tt float64, y []float64) { n++; last = tt })
		y := []float64{0}
		st, err := integ.Integrate(f, 0, 1, y)
		if err != nil {
			t.Fatal(err)
		}
		if n != st.Steps {
			t.Fatalf("%s: observer saw %d steps, stats say %d", integ.Name(), n, st.Steps)
		}
		if last != 1.0 {
			t.Fatalf("%s: last observed time %g, want 1", integ.Name(), last)
		}
	}
}

// TestResetAndBufferReuse: a pooled integrator — Reset between runs and
// driven through systems of different dimension (a sweep worker's arena
// reuses one Adaptive across modes whose hierarchies grow, shrink and vary
// with k) — must produce bitwise the trajectories of freshly constructed
// integrators, and must stop allocating once it has seen its largest
// system.
func TestResetAndBufferReuse(t *testing.T) {
	runs := []struct {
		f    Func
		n    int
		t1   float64
		last float64
	}{
		{expDecay, 1, 2.0, 0},
		{harmonic(3.0), 2, 5.0, 0},
		{expDecay, 1, 1.0, 0},
	}
	// Fresh integrator per run: the reference trajectories.
	for i := range runs {
		ad := NewDVERK(1e-8, 1e-12)
		ad.PI = true
		y := make([]float64, runs[i].n)
		y[0] = 1
		if _, err := ad.Integrate(runs[i].f, 0, runs[i].t1, y); err != nil {
			t.Fatal(err)
		}
		runs[i].last = y[0]
	}
	// One pooled integrator, Reset between runs.
	pooled := NewDVERK(0, 0)
	for i, r := range runs {
		pooled.Reset()
		pooled.RTol, pooled.ATol = 1e-8, 1e-12
		pooled.PI = true
		y := make([]float64, r.n)
		y[0] = 1
		if _, err := pooled.Integrate(r.f, 0, r.t1, y); err != nil {
			t.Fatal(err)
		}
		if y[0] != r.last {
			t.Fatalf("run %d: pooled integrator differs bitwise: %g vs %g", i, y[0], r.last)
		}
	}
	// Once warm at the largest dimension, re-runs must not allocate.
	y := make([]float64, 2)
	h := harmonic(3.0)
	if n := testing.AllocsPerRun(10, func() {
		pooled.Reset()
		pooled.RTol, pooled.ATol = 1e-8, 1e-12
		y[0], y[1] = 1, 0
		if _, err := pooled.Integrate(h, 0, 5.0, y); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("warm pooled integrator allocates %.0f/run, want 0", n)
	}
}
