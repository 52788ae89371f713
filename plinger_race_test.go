package plinger

import (
	"sync"
	"testing"

	"plinger/internal/dispatch"
)

// TestConcurrentRequestsOneModel exercises the Model concurrency contract
// the serving layer depends on: many goroutines computing spectra and
// matter power against one Model at once, through both the per-call pool
// and the long-lived shared pool, including the FastLOS path (which shares
// the process-wide Bessel kernel cache). Run it under -race; it also
// asserts the determinism contract by comparing every concurrent result
// against a sequential reference.
func TestConcurrentRequestsOneModel(t *testing.T) {
	m, err := New(SCDM())
	if err != nil {
		t.Fatal(err)
	}
	clOpts := SpectrumOptions{LMaxCl: 24, NK: 36, FastLOS: true, KRefine: 4}
	pkOpts := MatterPowerOptions{KMin: 1e-3, KMax: 0.1, NK: 8}

	refCl, err := m.ComputeSpectrum(clOpts)
	if err != nil {
		t.Fatal(err)
	}
	refPk, err := m.MatterPower(pkOpts)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, workers int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 2*workers)
		for g := 0; g < workers; g++ {
			wg.Add(2)
			go func(g int) {
				defer wg.Done()
				spec, err := m.ComputeSpectrum(clOpts)
				if err == nil {
					for i := range spec.Cl {
						if spec.Cl[i] != refCl.Cl[i] {
							t.Errorf("goroutine %d: C_l differs from the sequential reference at l=%d", g, spec.L[i])
							break
						}
					}
				}
				errs[2*g] = err
			}(g)
			go func(g int) {
				defer wg.Done()
				pk, err := m.MatterPower(pkOpts)
				if err == nil && pk.Sigma8 != refPk.Sigma8 {
					t.Errorf("goroutine %d: sigma8 %g != %g", g, pk.Sigma8, refPk.Sigma8)
				}
				errs[2*g+1] = err
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("per-call pools", func(t *testing.T) { check(t, 4) })

	pool := dispatch.NewSharedPool(2)
	defer pool.Close()
	m.Attach(pool)
	t.Run("shared pool", func(t *testing.T) { check(t, 4) })
}
