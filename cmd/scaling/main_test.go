package main

import "testing"

// TestReplay pins the hand-out replay on cases worked by hand.
func TestReplay(t *testing.T) {
	largestFirst := []float64{4, 1, 1, 1, 1}
	inputOrder := []float64{1, 1, 1, 1, 4}
	// Largest-first: one worker takes the 4 while the other runs the four
	// 1s, both done at 4. Input order: the 1s alternate, done at 2 and 2,
	// and the 4 lands on the first worker, done at 6.
	if got, _ := replay(largestFirst, 2); got != 4 {
		t.Fatalf("largest-first on 2 workers: makespan %g, want 4", got)
	}
	if got, eff := replay(inputOrder, 2); got != 6 || eff != 8.0/12 {
		t.Fatalf("input order on 2 workers: makespan %g, efficiency %g, want 6, 2/3", got, eff)
	}
	// One worker runs everything back to back, whatever the order.
	for _, costs := range [][]float64{largestFirst, inputOrder} {
		if got, eff := replay(costs, 1); got != 8 || eff != 1 {
			t.Fatalf("1 worker: makespan %g, efficiency %g, want the sum 8 and 1", got, eff)
		}
	}
}
