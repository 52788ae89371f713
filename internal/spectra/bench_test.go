package spectra

import (
	"sync"
	"testing"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

var (
	benchOnce sync.Once
	benchMdl  *core.Model
	benchMode *core.Result
	benchErr  error
)

// benchSetup evolves one sourced mode shared by the projection benchmarks.
func benchSetup(b *testing.B) (*core.Model, *core.Result) {
	b.Helper()
	benchOnce.Do(func() {
		bg, err := cosmology.New(cosmology.SCDM())
		if err != nil {
			benchErr = err
			return
		}
		th, err := thermo.New(bg, recomb.Options{})
		if err != nil {
			benchErr = err
			return
		}
		benchMdl = core.NewModel(bg, th)
		benchMode, benchErr = benchMdl.Evolve(core.Params{
			K: 0.02, LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchMdl, benchMode
}

var benchLs = []int{2, 3, 4, 5, 6, 7, 9, 11, 13, 16, 20, 25, 31, 38, 47, 58,
	72, 81, 92, 104, 117, 131, 150}

// BenchmarkThetaLOSReference is the exact projection of one mode: Bessel
// recurrences at every (tau, l) quadrature point, all multipoles 0..150.
func BenchmarkThetaLOSReference(b *testing.B) {
	m, r := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sc losScratch
	for i := 0; i < b.N; i++ {
		tau, src, err := sc.load(r)
		if err != nil {
			b.Fatal(err)
		}
		losAssemble(r.K, tau, src, m.BG.Tau0(), m.TH.TauRec(), losNodeStep, &sc)
		projectThetaExact(r.K, 150, m.BG.Tau0(), &sc)
	}
}

// BenchmarkThetaLOSFast is the table-driven projection of the same mode at
// the multipoles a C_l run actually requests.
func BenchmarkThetaLOSFast(b *testing.B) {
	m, r := benchSetup(b)
	tau0 := m.BG.Tau0()
	tbl, rows, err := sharedLadder(benchLs, r.K*tau0)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(benchLs))
	b.ReportAllocs()
	b.ResetTimer()
	var sc losScratch
	for i := 0; i < b.N; i++ {
		tau, src, err := sc.load(r)
		if err != nil {
			b.Fatal(err)
		}
		losAssemble(r.K, tau, src, tau0, m.TH.TauRec(), losNodeStep, &sc)
		projectThetaTable(r.K, tau0, &sc, rows, tbl, out)
	}
}

// BenchmarkRefineK measures building the coarse-to-fine plan (shared grid,
// resampled coarse fields, k-spline fit); the per-mode evaluation is part
// of the projection it feeds.
func BenchmarkRefineK(b *testing.B) {
	m, _ := benchSetup(b)
	fineKs := ClGrid(150, m.BG.Tau0(), 130)
	sw, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true},
		RefineCoarseGrid(fineKs, 6), 0, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.RefineK(130, m.TH.TauRec()); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	benchFastOnce sync.Once
	benchFastSw   *Sweep
	benchFastErr  error
)

// BenchmarkClLOSFast is the projection stage of the stock 150/130 product:
// a refined sweep (every sixth wavenumber evolved by the fast engine, the
// rest splined in k) built once, then per op every fine mode evaluated
// from the plan, assembled and projected against the shared Bessel table.
func BenchmarkClLOSFast(b *testing.B) {
	m, _ := benchSetup(b)
	tauRec := m.TH.TauRec()
	benchFastOnce.Do(func() {
		fineKs := ClGrid(150, m.BG.Tau0(), 130)
		coarse, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true, FastEvolve: true},
			RefineCoarseGrid(fineKs, 6), 0, false)
		if err != nil {
			benchFastErr = err
			return
		}
		benchFastSw, benchFastErr = coarse.RefineK(130, tauRec)
	})
	if benchFastErr != nil {
		b.Fatal(benchFastErr)
	}
	ls, prim := DefaultLs(150), DefaultPrimordial(1.0)
	if _, err := benchFastSw.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec); err != nil { // warms the table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchFastSw.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec); err != nil {
			b.Fatal(err)
		}
	}
}
