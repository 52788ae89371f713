package spectra

import (
	"runtime"
	"testing"
	"unsafe"

	"plinger/internal/core"
)

// TestLOSProjectionAllocBudget pins the fast projection hot path at zero
// steady-state allocations: with a warm losScratch, assembling a mode's
// sources and projecting them against the shared kernel table must reuse
// every buffer (this is what lets ClLOSFast sweep hundreds of modes per
// request without feeding the garbage collector).
func TestLOSProjectionAllocBudget(t *testing.T) {
	m := model(t)
	tau0, tauRec := m.BG.Tau0(), m.TH.TauRec()
	r, err := m.Evolve(core.Params{K: 0.03, LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true})
	if err != nil {
		t.Fatal(err)
	}
	ls := []int{2, 5, 10, 20, 40, 60}
	tbl, rows, err := sharedLadder(ls, r.K*(tau0-r.Sources[0].Tau))
	if err != nil {
		t.Fatal(err)
	}
	var sc losScratch
	out := make([]float64, len(ls))
	n := testing.AllocsPerRun(10, func() {
		tau, src, err := sc.load(r)
		if err != nil {
			t.Fatal(err)
		}
		losAssemble(r.K, tau, src, tau0, tauRec, losNodeStep, &sc)
		projectThetaTable(r.K, tau0, &sc, rows, tbl, out)
	})
	if n > 0 {
		t.Errorf("fast LOS assembly+projection: %.0f allocs/op with a warm scratch, want 0", n)
	}
}

// TestRefineKAllocBudget pins what the lazy refinement is for. RefineK
// builds a plan whose allocation count does not depend on how fine the
// target grid is, and the whole fused stage — plan, per-worker mode
// evaluation, assembly, projection — allocates fewer bytes than the
// nkFine x ntau sample array alone that RefineK used to materialise.
func TestRefineKAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a real coarse sweep")
	}
	m := model(t)
	tauRec := m.TH.TauRec()
	ks := ClGrid(60, m.BG.Tau0(), 12)
	sw, err := RunSweep(m, core.Params{LMax: 12, Gauge: core.ConformalNewtonian, KeepSources: true}, ks, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 40
	for _, nkFine := range []int{40, 400} {
		n := testing.AllocsPerRun(3, func() {
			if _, err := sw.RefineK(nkFine, tauRec); err != nil {
				t.Fatal(err)
			}
		})
		if n > budget {
			t.Errorf("RefineK(%d): %.0f allocs/op, budget %d at any target size", nkFine, n, budget)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // bounds the per-worker scratch sets
	ls := []int{2, 5, 10, 20, 40, 60}
	prim := DefaultPrimordial(1.0)
	const nkFine = 40
	stage := func() *Sweep {
		refined, err := sw.RefineK(nkFine, tauRec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := refined.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec); err != nil {
			t.Fatal(err)
		}
		return refined
	}
	p := stage().plan // also warms the Bessel table
	arrayBytes := uint64(0)
	for _, t0 := range p.fineT0 {
		arrayBytes += uint64(len(p.grid)-t0) * uint64(unsafe.Sizeof(core.Sample{}))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stage()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= arrayBytes {
		t.Errorf("RefineK + ClLOSFast allocated %d bytes; the materialised %d-mode sample array alone was %d",
			got, nkFine, arrayBytes)
	}
}
