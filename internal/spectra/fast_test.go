package spectra

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"plinger/internal/core"
	"plinger/internal/specfunc"
	"plinger/internal/spline"
)

// TestThetaLOSFastMatchesReference: on one mode, the table-driven
// projection must reproduce the exact-recurrence reference multipole by
// multipole. The two paths share grid and sources, so the only differences
// are the cubic kernel interpolation (~1e-6) and the turning-point
// truncation (~1e-9) — far below the 1e-3 engine budget this pins. k = 0.03
// is interpolated throughout; at k = 0.06 the free-streaming points sit on
// the table's nodes and are read without interpolation.
func TestThetaLOSFastMatchesReference(t *testing.T) {
	m := model(t)
	tau0 := m.BG.Tau0()
	for _, c := range []struct {
		k  float64
		ls []int
	}{
		{0.03, []int{2, 5, 10, 20, 40, 60}},
		{0.06, []int{2, 5, 40, 150, 400, 640, 700, 760}},
	} {
		r, err := m.Evolve(core.Params{K: c.k, LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ThetaLOS(r, c.ls[len(c.ls)-1], tau0, m.TH.TauRec())
		if err != nil {
			t.Fatal(err)
		}
		fast, err := ThetaLOSFast(r, c.ls, tau0, m.TH.TauRec())
		if err != nil {
			t.Fatal(err)
		}
		var scale float64
		for _, l := range c.ls {
			if a := math.Abs(ref[l]); a > scale {
				scale = a
			}
		}
		for j, l := range c.ls {
			if diff := math.Abs(fast[j] - ref[l]); diff > 1e-4*scale {
				t.Fatalf("k=%g l=%d: fast %g vs reference %g (scale %g)", c.k, l, fast[j], ref[l], scale)
			}
		}
	}
}

// TestClLOSFastMatchesReference: the golden equivalence of the fast engine
// on a common sweep — identical quadrature, tabulated vs exact kernels.
func TestClLOSFastMatchesReference(t *testing.T) {
	m := model(t)
	ks := ClGrid(60, m.BG.Tau0(), 40)
	sw, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true}, ks, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ls := []int{2, 4, 8, 15, 30, 60}
	ref, err := sw.ClLOS(ls, DefaultPrimordial(1.0), m.BG.P.TCMB, m.TH.TauRec())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sw.ClLOSFast(ls, DefaultPrimordial(1.0), m.BG.P.TCMB, m.TH.TauRec())
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range ls {
		rel := math.Abs(fast.Cl[i]-ref.Cl[i]) / ref.Cl[i]
		if rel > 1e-3 {
			t.Fatalf("C_%d: fast %g vs reference %g (rel %g)", l, fast.Cl[i], ref.Cl[i], rel)
		}
	}
}

// TestRefineKMatchesFullGrid is the golden check of the coarse-to-fine
// pipeline: evolving every 4th wavenumber and splining the sources in k
// must reproduce the fully evolved fine-grid spectrum to < 1e-3 — the
// CMBFAST premise that sources vary slowly in k.
func TestRefineKMatchesFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("two C_l sweeps are expensive")
	}
	m := model(t)
	tau0 := m.BG.Tau0()
	tauRec := m.TH.TauRec()
	nkFine := 57
	mode := core.Params{LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true}

	fineKs := ClGrid(60, tau0, nkFine)
	full, err := RunSweep(m, mode, fineKs, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := RunSweep(m, mode, RefineCoarseGrid(fineKs, 4), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := coarse.RefineK(nkFine, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined.KValues) != nkFine {
		t.Fatalf("refined to %d modes, want %d", len(refined.KValues), nkFine)
	}
	for i, k := range refined.KValues {
		if math.Abs(k-full.KValues[i]) > 1e-12 {
			t.Fatalf("fine grid mismatch at %d: %g vs %g", i, k, full.KValues[i])
		}
	}

	ls := []int{2, 4, 8, 15, 30, 60}
	prim := DefaultPrimordial(1.0)
	want, err := full.ClLOS(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	// The refined sweep feeds the reference projection (the pure RefineK
	// error) and the fast projection (the production pipeline).
	gotRef, err := refined.ClLOS(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	gotFast, err := refined.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range ls {
		relR := math.Abs(gotRef.Cl[i]-want.Cl[i]) / want.Cl[i]
		relF := math.Abs(gotFast.Cl[i]-want.Cl[i]) / want.Cl[i]
		if relR > 1e-3 || relF > 1e-3 {
			t.Fatalf("C_%d: full %g, refined ref %g (rel %g), refined fast %g (rel %g)",
				l, want.Cl[i], gotRef.Cl[i], relR, gotFast.Cl[i], relF)
		}
	}
}

// eagerRefine materialises a refined sweep the way RefineK itself used to:
// at every grid time one spline.Multi is fitted over the started coarse
// modes and evaluated along the rising fine grid with a carried hint. It
// reads the plan's inputs (grid, resampled coarse fields, start cursors) but
// none of its spline arithmetic, so it is the oracle for the lazy path.
func eagerRefine(t *testing.T, refined *Sweep) *Sweep {
	t.Helper()
	const nf = refineFields
	p := refined.plan
	nc, nt, nk := len(p.kc), len(p.grid), len(refined.KValues)
	results := make([]*core.Result, nk)
	for i, k := range refined.KValues {
		results[i] = &core.Result{
			K: k, Tau: p.grid[nt-1], Gauge: core.ConformalNewtonian,
			Sources: make([]core.Sample, nt-p.fineT0[i]),
		}
	}
	mu := spline.NewMulti(nf)
	knots := make([]float64, nc*nf)
	var v [nf]float64
	for ti := 0; ti < nt; ti++ {
		c0 := p.c0[ti]
		for c := c0; c < nc; c++ {
			copy(knots[(c-c0)*nf:(c-c0+1)*nf], p.y[(c*nt+ti)*nf:])
		}
		if nc-c0 >= 2 {
			if err := mu.Fit(p.kc[c0:], knots[:(nc-c0)*nf]); err != nil {
				t.Fatal(err)
			}
		}
		hint := 0
		for i, k := range refined.KValues {
			if p.fineT0[i] > ti {
				continue
			}
			if nc-c0 >= 2 {
				mu.EvalHint(k, &hint, v[:])
			} else {
				copy(v[:], knots)
			}
			results[i].Sources[ti-p.fineT0[i]] = core.Sample{
				Tau: p.grid[ti], Kdot: v[fKdot], Kappa: v[fKappa], Theta0: v[fTheta0],
				Psi: v[fPsi], PhiDot: v[fPhiDot], VB: v[fVB], Pi: v[fPi],
			}
		}
	}
	return &Sweep{KValues: refined.KValues, Results: results, Tau0: refined.Tau0}
}

// TestRefineKLazyMatchesEager is the lazy sweep's contract: every mode the
// accessor evaluates — packed rows on the plan's own grid — and the
// reference and fast spectra built on it, are bit for bit what an eagerly
// materialised sweep of the same plan gives, packed from its samples — at
// any worker count, since a mode is evaluated, assembled and projected on
// one worker.
func TestRefineKLazyMatchesEager(t *testing.T) {
	m := model(t)
	tauRec := m.TH.TauRec()
	const nkFine = 57
	fineKs := ClGrid(60, m.BG.Tau0(), nkFine)
	coarse, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true, FastEvolve: true},
		RefineCoarseGrid(fineKs, 4), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := coarse.RefineK(nkFine, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Results != nil {
		t.Fatal("refined sweep materialised its modes")
	}
	eager := eagerRefine(t, refined)
	var sc, esc losScratch
	for i, k := range refined.KValues {
		tau, rows, err := refined.mode(i, &sc)
		if err != nil {
			t.Fatal(err)
		}
		wantTau, wantRows, err := eager.mode(i, &esc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tau, wantTau) || !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("mode %d (k=%g): lazy evaluation differs from the eager sweep", i, k)
		}
	}
	ls := []int{2, 3, 4, 6, 8, 11, 15, 21, 30, 42, 60} // 11 rows: two four-row passes and a remainder
	prim := DefaultPrimordial(1.0)
	wantRef, err := eager.ClLOS(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	gotRef, err := refined.ClLOS(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRef.Cl, wantRef.Cl) {
		t.Fatal("ClLOS on the lazy sweep differs from the eager sweep")
	}
	wantFast, err := eager.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		gotFast, err := refined.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFast.Cl, wantFast.Cl) {
			t.Fatalf("ClLOSFast on the lazy sweep differs from the eager sweep at GOMAXPROCS %d", procs)
		}
	}
	// A refined sweep has no evolved results to read off or refine again.
	if _, err := refined.Cl(ls, prim, m.BG.P.TCMB); err == nil {
		t.Fatal("hierarchy read-off accepted a refined sweep")
	}
	if _, err := refined.RefineK(4*nkFine, tauRec); err == nil {
		t.Fatal("RefineK accepted a refined sweep")
	}
}

// TestClLOSFastHistoryIndependent extends TestSharedBesselTableHistoryIndependent
// from the table's rows to the projection: a refined 150/130 ClLOSFast on
// a fresh table, whose row pairs are the ladder's own, and again after the
// same cache key has been union-extended with other multipoles — so ladder
// rows lose their pair partners and run beside a spare lane — give the
// same C_l bit for bit.
func TestClLOSFastHistoryIndependent(t *testing.T) {
	m := model(t)
	tauRec := m.TH.TauRec()
	fineKs := ClGrid(150, m.BG.Tau0(), 130)
	coarse, err := RunSweep(m, core.Params{LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true, FastEvolve: true},
		RefineCoarseGrid(fineKs, 6), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := coarse.RefineK(130, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	ls, prim := DefaultLs(150), DefaultPrimordial(1.0)

	defer specfunc.SetBesselCacheLimit(specfunc.SetBesselCacheLimit(1))
	specfunc.SharedBesselTable([]int{900}, 100, nil) // evict whatever earlier tests cached
	fresh, err := refined.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	freshTbl, _, err := sharedLadder(ls, refined.losXmax())
	if err != nil {
		t.Fatal(err)
	}

	// Odd multipoles under the same key: the union interleaves them with
	// the ladder, which pairs the two differently.
	var other []int
	for l := 9; l < 150; l += 2 {
		if !slices.Contains(ls, l) {
			other = append(other, l)
		}
	}
	grown := specfunc.SharedBesselTable(other, refined.losXmax(), nil)
	if grown == freshTbl {
		t.Fatal("the extension did not rebuild the table")
	}
	union, orphans := grown.Ls(), 0
	for i := 0; i+1 < len(union); i += 2 { // rows 2i and 2i+1 share a pair
		if slices.Contains(ls, union[i]) != slices.Contains(ls, union[i+1]) {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatal("no ladder row lost its pair partner; the test exercises nothing")
	}
	extended, err := refined.ClLOSFast(ls, prim, m.BG.P.TCMB, tauRec)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, _, _ := sharedLadder(ls, refined.losXmax()); tbl != grown {
		t.Fatal("the second projection did not read the extended table")
	}
	for j, l := range ls {
		if math.Float64bits(fresh.Cl[j]) != math.Float64bits(extended.Cl[j]) {
			t.Fatalf("C_%d: %x on a fresh table, %x once %d of its rows lost their pair partners", l,
				math.Float64bits(fresh.Cl[j]), math.Float64bits(extended.Cl[j]), orphans)
		}
	}
}

func TestRefineKValidation(t *testing.T) {
	m := model(t)
	sw, err := RunSweep(m, core.Params{LMax: 12, Gauge: core.ConformalNewtonian, KeepSources: true},
		[]float64{0.01, 0.02, 0.03, 0.04, 0.05}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.RefineK(3, m.TH.TauRec()); err == nil {
		t.Fatal("coarser-than-input refinement accepted")
	}
	syncSw, err := RunSweep(m, core.Params{LMax: 12, Gauge: core.Synchronous, KeepSources: true},
		[]float64{0.01, 0.02, 0.03, 0.04}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := syncSw.RefineK(16, m.TH.TauRec()); err == nil {
		t.Fatal("synchronous sweep accepted")
	}
	short := &Sweep{KValues: []float64{1, 2}, Results: sw.Results[:2], Tau0: sw.Tau0}
	if _, err := short.RefineK(9, m.TH.TauRec()); err == nil {
		t.Fatal("too-few coarse modes accepted")
	}
}

// TestSampleSeriesCursor: the monotone-cursor lookup of the packed series
// must agree with plain bisection for monotone sweeps, repeated queries,
// and random access.
func TestSampleSeriesCursor(t *testing.T) {
	const n = 64
	ts := make([]float64, n)
	src := make([][refineFields]float64, n)
	tau := 10.0
	rng := rand.New(rand.NewSource(7))
	for i := range src {
		ts[i] = tau
		src[i][fTheta0], src[i][fPsi] = math.Sin(tau), math.Cos(tau)
		tau += 0.5 + 10.0*rng.Float64()
	}
	ss := sampleSeries{tau: ts, src: src}
	bisect := func(q float64) (theta0, psi float64) {
		if q <= ts[0] {
			return src[0][fTheta0], src[0][fPsi]
		}
		if q >= ts[n-1] {
			return src[n-1][fTheta0], src[n-1][fPsi]
		}
		lo, hi := 0, n-1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if ts[mid] <= q {
				lo = mid
			} else {
				hi = mid
			}
		}
		f := (q - ts[lo]) / (ts[hi] - ts[lo])
		return src[lo][fTheta0]*(1-f) + src[hi][fTheta0]*f, src[lo][fPsi]*(1-f) + src[hi][fPsi]*f
	}
	check := func(q float64) {
		var got [refineFields]float64
		ss.atInto(q, &got)
		theta0, psi := bisect(q)
		if got[fTheta0] != theta0 || got[fPsi] != psi {
			t.Fatalf("at(%g): got (%g, %g), want (%g, %g)", q, got[fTheta0], got[fPsi], theta0, psi)
		}
	}
	// Monotone sweep (the hot-loop pattern), including exact knots.
	for q := 0.0; q < tau+5; q += 0.37 {
		check(q)
	}
	for _, q := range ts {
		check(q)
	}
	// Random access must still be exact (cursor rewinds by bisection).
	for i := 0; i < 500; i++ {
		check(tau * rng.Float64())
	}
}

func TestRefineCoarseGrid(t *testing.T) {
	fine := ClGrid(150, 11500, 130)
	coarse := RefineCoarseGrid(fine, 6)
	if len(coarse) >= len(fine)/2 {
		t.Fatalf("coarse grid too big: %d of %d", len(coarse), len(fine))
	}
	if coarse[0] != fine[0] || coarse[len(coarse)-1] != fine[len(fine)-1] {
		t.Fatal("endpoints must be preserved")
	}
	for i := 1; i < len(coarse); i++ {
		if coarse[i] <= coarse[i-1] {
			t.Fatalf("coarse grid not increasing at %d", i)
		}
	}
	// The log head must put several wavenumbers inside the first fine
	// coarse interval (where mode entry sweeps through recombination).
	nHead := 0
	for _, k := range coarse {
		if k > fine[0] && k < fine[6] {
			nHead++
		}
	}
	if nHead < 8 {
		t.Fatalf("log head too sparse: %d points", nHead)
	}
	if got := RefineCoarseGrid(fine, 1); len(got) != len(fine) {
		t.Fatal("kRefine 1 must return the fine grid")
	}
}
