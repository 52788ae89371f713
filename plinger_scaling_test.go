package plinger

import (
	"testing"

	"plinger/internal/dispatch"
)

// TestSpectrumBitwiseAcrossWorkerCounts is the facade-level determinism
// guarantee behind the scaling benchmarks: the full fast C_l pipeline
// (arena-backed evolutions + coarse-to-fine k refinement + table-driven
// projection) must return bitwise-identical spectra at every worker count,
// through both the per-call pool and the long-lived shared pool — so the
// speedup and efficiency columns of a scaling run compare runs whose
// outputs are exactly equal, not merely close.
func TestSpectrumBitwiseAcrossWorkerCounts(t *testing.T) {
	m, err := New(SCDM())
	if err != nil {
		t.Fatal(err)
	}
	opts := SpectrumOptions{LMaxCl: 24, NK: 36, FastLOS: true, FastEvolve: true, KRefine: 4}

	o1 := opts
	o1.Workers = 1
	ref, err := m.ComputeSpectrum(o1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		o := opts
		o.Workers = workers
		spec, err := m.ComputeSpectrum(o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Cl {
			if spec.Cl[i] != ref.Cl[i] {
				t.Fatalf("workers=%d: C_l differs bitwise at l=%d: %g vs %g",
					workers, spec.L[i], spec.Cl[i], ref.Cl[i])
			}
		}
	}

	pool := dispatch.NewSharedPool(3)
	defer pool.Close()
	m.Attach(pool)
	spec, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Cl {
		if spec.Cl[i] != ref.Cl[i] {
			t.Fatalf("shared pool: C_l differs bitwise at l=%d", spec.L[i])
		}
	}
}

// TestAttachedPoolRunsBruteSweeps: an attached pool also runs the brute
// method's sweeps, with their per-k hierarchy cutoffs, bitwise equal to a
// pool started per call; once the pool is closed the same request fails,
// so it did run there.
func TestAttachedPoolRunsBruteSweeps(t *testing.T) {
	m, err := New(SCDM())
	if err != nil {
		t.Fatal(err)
	}
	opts := SpectrumOptions{LMaxCl: 20, NK: 30, Method: "brute", Ls: []int{5, 10, 20}, Schedule: "input-order"}
	ref, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := dispatch.NewSharedPool(2)
	m.Attach(pool)
	spec, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Cl {
		if spec.Cl[i] != ref.Cl[i] {
			t.Fatalf("attached pool: brute C_l differs bitwise at l=%d", spec.L[i])
		}
	}
	pool.Close()
	if _, err := m.ComputeSpectrum(opts); err == nil {
		t.Fatal("brute request bypassed the attached pool")
	}
}
