package core

import "testing"

// The steady-state allocation budgets of the evolve hot path. A dispatch
// worker holds one Scratch arena and threads it through EvolveWith, so
// once the arena is warm the only allocations a mode may make are its
// product: the Result header, the two multipole transfer slices, and (for
// source-recording runs) the sample backing array — everything else (state
// vector, resize buffers, ratio tables, Runge-Kutta stages) is re-sliced
// from the arena. The reference path before the arena refactor allocated
// 54/op and the fast engine 198/op (resize buffers and integrator stages
// made fresh per segment); these budgets pin both far below that so the
// regression cannot creep back.
const (
	// budgetBrute covers Result + ThetaL + ThetaPL (3) with headroom 2.
	budgetBrute = 5
	// budgetLOS adds the recorded-source backing array (may double once).
	budgetLOS = 7
)

func allocsWarm(t *testing.T, m *Model, p Params) float64 {
	t.Helper()
	sc := NewScratch()
	if _, err := m.EvolveWith(p, sc); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := m.EvolveWith(p, sc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEvolveAllocBudget guards the per-mode steady-state allocation count
// of every engine/workload combination a sweep worker runs.
func TestEvolveAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need full evolutions")
	}
	m := model(t)
	brute := Params{K: 0.02, LMax: 167, Gauge: Synchronous}
	los := Params{K: 0.02, LMax: 24, Gauge: ConformalNewtonian, KeepSources: true}
	cases := []struct {
		name   string
		p      Params
		fast   bool
		budget float64
	}{
		{"brute_reference", brute, false, budgetBrute},
		{"brute_fast", brute, true, budgetBrute},
		{"los_reference", los, false, budgetLOS},
		{"los_fast", los, true, budgetLOS},
	}
	for _, c := range cases {
		p := c.p
		p.FastEvolve = c.fast
		if got := allocsWarm(t, m, p); got > c.budget {
			t.Errorf("%s: %.0f allocs/op with a warm arena, budget %.0f", c.name, got, c.budget)
		}
	}
}

// TestScratchReuseBitwise: a warm arena must be invisible in the results —
// the same mode through a fresh private arena and through a scratch that
// just evolved two very different modes (forcing buffer growth, integrator
// carry-state, closure reuse) must agree bitwise, sources included.
func TestScratchReuseBitwise(t *testing.T) {
	m := model(t)
	for _, p := range []Params{
		{K: 0.03, LMax: 40, Gauge: Synchronous, TauEnd: 400, FastEvolve: true},
		{K: 0.03, LMax: 14, Gauge: ConformalNewtonian, TauEnd: 400, KeepSources: true, FastEvolve: true},
		{K: 0.03, LMax: 14, Gauge: ConformalNewtonian, TauEnd: 400, KeepSources: true},
	} {
		ref, err := m.Evolve(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		if _, err := m.EvolveWith(Params{K: 0.09, LMax: 120, Gauge: Synchronous, TauEnd: 350, FastEvolve: true}, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := m.EvolveWith(Params{K: 0.005, LMax: 8, Gauge: ConformalNewtonian, TauEnd: 350, KeepSources: true}, sc); err != nil {
			t.Fatal(err)
		}
		got, err := m.EvolveWith(p, sc)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats != got.Stats || ref.Flops != got.Flops {
			t.Fatalf("k=%g %v: integrator work differs with a warm arena: %+v vs %+v",
				p.K, p.Gauge, ref.Stats, got.Stats)
		}
		for l := range ref.ThetaL {
			if ref.ThetaL[l] != got.ThetaL[l] || ref.ThetaPL[l] != got.ThetaPL[l] {
				t.Fatalf("k=%g %v: moment l=%d differs bitwise", p.K, p.Gauge, l)
			}
		}
		if ref.DeltaC != got.DeltaC || ref.Phi != got.Phi || ref.Eta != got.Eta ||
			ref.MaxConstraintResidual != got.MaxConstraintResidual {
			t.Fatalf("k=%g %v: state differs bitwise with a warm arena", p.K, p.Gauge)
		}
		if len(ref.Sources) != len(got.Sources) {
			t.Fatalf("k=%g: %d vs %d source samples", p.K, len(ref.Sources), len(got.Sources))
		}
		for i := range ref.Sources {
			if ref.Sources[i] != got.Sources[i] {
				t.Fatalf("k=%g: source sample %d differs bitwise", p.K, i)
			}
		}
	}
}

// TestResultsOutliveScratch: results are the product a sweep accumulates
// while the arena moves on — they must never alias scratch storage.
func TestResultsOutliveScratch(t *testing.T) {
	m := model(t)
	p := Params{K: 0.03, LMax: 12, Gauge: ConformalNewtonian, TauEnd: 400, KeepSources: true}
	sc := NewScratch()
	first, err := m.EvolveWith(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	theta := append([]float64(nil), first.ThetaL...)
	src0 := first.Sources[0]
	// Clobber the arena with a different mode.
	if _, err := m.EvolveWith(Params{K: 0.08, LMax: 30, Gauge: ConformalNewtonian, TauEnd: 400, KeepSources: true, FastEvolve: true}, sc); err != nil {
		t.Fatal(err)
	}
	for l := range theta {
		if first.ThetaL[l] != theta[l] {
			t.Fatalf("ThetaL[%d] changed after the arena's next mode", l)
		}
	}
	if first.Sources[0] != src0 {
		t.Fatal("recorded sources changed after the arena's next mode")
	}
}

// TestSourceCapacitySeededFromArena: a source-recording mode sizes its
// sample slice from the count the arena's previous mode recorded — scalar
// and batch paths alike — instead of append-doubling from 1024; the seed is
// only a capacity, so a mode that records more than its predecessor still
// gets every sample, bitwise equal to a cold run, in storage of its own.
func TestSourceCapacitySeededFromArena(t *testing.T) {
	m := model(t)
	small := Params{K: 0.004, LMax: 10, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true}
	big := Params{K: 0.25, LMax: 24, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true}
	cold, err := m.Evolve(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Sources) <= 1024 {
		t.Fatalf("test mode records %d samples; it must outgrow the unseeded capacity", len(cold.Sources))
	}
	sc := NewScratch()
	first, err := m.EvolveWith(small, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Sources) >= len(cold.Sources) {
		t.Fatal("the seeding mode must record fewer samples than the test mode")
	}
	grown, err := m.EvolveWith(big, sc) // seeded too small: append grows it
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := m.EvolveWith(big, sc) // seeded by an equal count
	if err != nil {
		t.Fatal(err)
	}
	n := len(cold.Sources)
	if c := cap(seeded.Sources); c < n || c > n+n/8 {
		t.Errorf("seeded capacity %d for %d samples, want within an eighth above", c, n)
	}
	batch, err := m.EvolveBatchWith([]float64{big.K, big.K * 1.01}, big, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batch {
		if len(r.Sources) > 1024 && cap(r.Sources) >= 2*len(r.Sources) {
			t.Errorf("batch member k=%g: capacity %d for %d samples was not seeded", r.K, cap(r.Sources), len(r.Sources))
		}
	}
	for name, got := range map[string]*Result{"grown": grown, "seeded": seeded} {
		if len(got.Sources) != n {
			t.Fatalf("%s: %d samples, cold run %d", name, len(got.Sources), n)
		}
		for i := range cold.Sources {
			if got.Sources[i] != cold.Sources[i] {
				t.Fatalf("%s: sample %d differs bitwise from the cold run", name, i)
			}
		}
	}
	if &grown.Sources[0] == &seeded.Sources[0] || &batch[0].Sources[0] == &batch[1].Sources[0] {
		t.Fatal("two results share sample storage")
	}
}
