package dispatch

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

var (
	mdlOnce sync.Once
	mdl     *core.Model
	mdlErr  error
)

func model(t testing.TB) *core.Model {
	t.Helper()
	mdlOnce.Do(func() {
		bg, err := cosmology.New(cosmology.SCDM())
		if err != nil {
			mdlErr = err
			return
		}
		th, err := thermo.New(bg, recomb.Options{})
		if err != nil {
			mdlErr = err
			return
		}
		mdl = core.NewModel(bg, th)
	})
	if mdlErr != nil {
		t.Fatal(mdlErr)
	}
	return mdl
}

func testKs() []float64 { return []float64{0.002, 0.012, 0.03, 0.05, 0.075, 0.02, 0.008} }

func smallMode() core.Params {
	return core.Params{LMax: 10, Gauge: core.Synchronous, TauEnd: 300}
}

func TestPerKLMax(t *testing.T) {
	if PerKLMax(1e-4, 12000, 1000) >= PerKLMax(0.05, 12000, 1000) {
		t.Fatal("per-k lmax should grow with k")
	}
	if PerKLMax(1.0, 12000, 300) != 300 {
		t.Fatal("per-k lmax must respect the global cap")
	}
	if PerKLMax(1e-9, 12000, 1000) < 8 {
		t.Fatal("per-k lmax floor")
	}
}

// sameResult asserts bitwise equality of every deterministic field; only
// wallclock timing may differ between backends.
func sameResult(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: missing result", label)
	}
	if a.K != b.K || a.Tau != b.Tau || a.A != b.A || a.Gauge != b.Gauge || a.LMax != b.LMax {
		t.Fatalf("%s: header differs: %+v vs %+v", label, a, b)
	}
	if a.DeltaC != b.DeltaC || a.DeltaB != b.DeltaB || a.DeltaG != b.DeltaG ||
		a.DeltaNu != b.DeltaNu || a.DeltaHNu != b.DeltaHNu ||
		a.ThetaC != b.ThetaC || a.ThetaB != b.ThetaB {
		t.Fatalf("%s: fluid perturbations differ", label)
	}
	if a.Phi != b.Phi || a.Psi != b.Psi || a.Eta != b.Eta || a.HDot != b.HDot {
		t.Fatalf("%s: metric perturbations differ", label)
	}
	if a.MaxConstraintResidual != b.MaxConstraintResidual || a.Flops != b.Flops {
		t.Fatalf("%s: diagnostics differ", label)
	}
	if a.Stats.Steps != b.Stats.Steps || a.Stats.Evals != b.Stats.Evals {
		t.Fatalf("%s: integrator stats differ", label)
	}
	if !reflect.DeepEqual(a.ThetaL, b.ThetaL) || !reflect.DeepEqual(a.ThetaPL, b.ThetaPL) {
		t.Fatalf("%s: multipoles differ", label)
	}
}

func checkStats(t *testing.T, label string, st *RunStats, nModes, nWorkers int) {
	t.Helper()
	if st.Modes != nModes {
		t.Fatalf("%s: %d modes in stats, want %d", label, st.Modes, nModes)
	}
	if st.NWorkers != nWorkers {
		t.Fatalf("%s: %d workers, want %d", label, st.NWorkers, nWorkers)
	}
	if st.Wallclock <= 0 || st.TotalCPU <= 0 || st.Efficiency <= 0 || st.TotalFlops <= 0 || st.FlopRate <= 0 {
		t.Fatalf("%s: degenerate stats: %+v", label, st)
	}
	modes := 0
	var cpu float64
	for _, w := range st.Workers {
		modes += w.Modes
		cpu += w.Seconds
	}
	if modes != nModes {
		t.Fatalf("%s: worker timings cover %d modes, want %d", label, modes, nModes)
	}
	if cpu != st.TotalCPU {
		t.Fatalf("%s: TotalCPU %g != sum of worker seconds %g", label, st.TotalCPU, cpu)
	}
}

// The decisive property of the subsystem: the same k grid through the
// pool and through the master/worker protocol over every transport yields
// bitwise-identical results, with consistent telemetry.
func TestDispatcherEquivalence(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := smallMode()
	const workers = 3
	pool := &Pool{Model: m, Workers: workers}
	ref, refSt, err := pool.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	if refSt.Backend != "pool" {
		t.Fatalf("pool backend label %q", refSt.Backend)
	}
	checkStats(t, "pool", refSt, len(ks), workers)
	for _, tr := range []string{"chan", "fifo", "tcp"} {
		d, cleanup, err := NewMP(m, tr, workers)
		if err != nil {
			t.Fatal(err)
		}
		sw, st, err := d.Run(context.Background(), ks, mode)
		cleanup()
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if st.Backend != "mp/"+tr {
			t.Fatalf("%s: backend label %q", tr, st.Backend)
		}
		if st.NProc != workers+1 {
			t.Fatalf("%s: NProc %d", tr, st.NProc)
		}
		if st.BytesMoved == 0 {
			t.Fatalf("%s: no bytes moved", tr)
		}
		checkStats(t, tr, st, len(ks), workers)
		for i := range ks {
			sameResult(t, tr, ref.Results[i], sw.Results[i])
		}
	}
}

// TestArenaSweepEquivalence: every backend worker now threads a persistent
// core.Scratch arena through its evolutions, so this is the guard against
// scratch state leaking between modes or between workers (run it under
// -race via make test-race). The workload deliberately stresses the arena:
// FastEvolve grows and shrinks the hierarchies (resize ping-pong buffers),
// KeepSources records samples (which must outlive the arena's next mode),
// and per-k adaptive cutoffs vary the layout mode to mode. Results —
// sources included — must be bitwise-equal to scratch-free sequential
// evolution across Pool, SharedPool and MP.
func TestArenaSweepEquivalence(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := core.Params{LMax: 40, Gauge: core.ConformalNewtonian, TauEnd: 400,
		KeepSources: true, FastEvolve: true}

	// Scratch-free reference: one private arena per mode.
	ref := make([]*core.Result, len(ks))
	for i, k := range ks {
		pm := mode
		pm.K = k
		pm.LMax = PerKLMax(k, 400, mode.LMax)
		r, err := m.Evolve(pm)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = r
	}

	check := func(label string, sw *Sweep) {
		t.Helper()
		for i := range ks {
			sameResult(t, label, ref[i], sw.Results[i])
			if !reflect.DeepEqual(ref[i].Sources, sw.Results[i].Sources) {
				t.Fatalf("%s: sources of mode %d differ from the scratch-free reference", label, i)
			}
		}
	}

	pool := &Pool{Model: m, Workers: 3, AdaptLMax: true}
	sw, _, err := pool.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	check("pool", sw)

	shared := NewSharedPool(3)
	sw, _, err = shared.Sweep(context.Background(), m, ks, mode, true)
	shared.Close()
	if err != nil {
		t.Fatal(err)
	}
	check("shared", sw)

	d, cleanup, err := NewMP(m, "chan", 3)
	if err != nil {
		t.Fatal(err)
	}
	d.AdaptLMax = true
	sw, _, err = d.Run(context.Background(), ks, mode)
	cleanup()
	if err != nil {
		t.Fatal(err)
	}
	check("mp", sw)
}

// The per-k adaptive hierarchy must be applied identically by both
// backends: the pool trims LMax locally, the MP master ships the override
// in the assignment message.
func TestAdaptiveLMaxEquivalence(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := core.Params{LMax: 200, Gauge: core.Synchronous, TauEnd: 300}

	pool := &Pool{Model: m, Workers: 2, AdaptLMax: true}
	ref, _, err := pool.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	sawTrim := false
	for i, r := range ref.Results {
		want := PerKLMax(ks[i], 300, 200)
		if r.LMax != want {
			t.Fatalf("k=%g ran with lmax %d, want %d", ks[i], r.LMax, want)
		}
		if want < 200 {
			sawTrim = true
		}
	}
	if !sawTrim {
		t.Fatal("adaptive cutoff never engaged; test grid too easy")
	}

	d, cleanup, err := NewMP(m, "chan", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	d.AdaptLMax = true
	sw, _, err := d.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		sameResult(t, "adaptive", ref.Results[i], sw.Results[i])
	}
}

// Line-of-sight sources must survive the wire (tag 7) so a CMBFAST-style
// C_l can be assembled from an MP run exactly as from a pool run.
func TestSourcesEquivalence(t *testing.T) {
	m := model(t)
	ks := testKs()[:4]
	mode := core.Params{LMax: 10, Gauge: core.ConformalNewtonian, TauEnd: 300, KeepSources: true}

	pool := &Pool{Model: m, Workers: 2}
	ref, _, err := pool.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	d, cleanup, err := NewMP(m, "chan", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	sw, _, err := d.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		if len(sw.Results[i].Sources) == 0 {
			t.Fatalf("mode %d arrived without sources", i)
		}
		if !reflect.DeepEqual(ref.Results[i].Sources, sw.Results[i].Sources) {
			t.Fatalf("mode %d sources differ between backends", i)
		}
	}
}

// TestBlockOrder pins the one hand-out order: blocks by their largest
// member, descending, ties in grid order.
func TestBlockOrder(t *testing.T) {
	ks := []float64{3, 1, 2, 1}
	if got := blockOrder(ks, batchBlocks(len(ks), 1)); !reflect.DeepEqual(got, []int{0, 2, 1, 3}) {
		t.Fatalf("scalar blocks: order %v, want [0 2 1 3]", got)
	}
	ks = []float64{1, 5, 2, 3, 4, 1}
	if got := blockOrder(ks, batchBlocks(len(ks), 2)); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("pairs: order %v, want [0 2 1]", got)
	}
}

func TestDispatcherErrors(t *testing.T) {
	m := model(t)
	if _, _, err := (&Pool{Model: m}).Run(context.Background(), nil, smallMode()); err == nil {
		t.Fatal("empty grid accepted by pool")
	}
	if _, _, err := (&Pool{}).Run(context.Background(), testKs(), smallMode()); err == nil {
		t.Fatal("model-less pool accepted")
	}
	if _, _, err := (&MP{Model: m}).Run(context.Background(), testKs(), smallMode()); err == nil {
		t.Fatal("endpoint-less mp dispatcher accepted")
	}
	if _, _, err := NewMP(m, "carrier-pigeon", 2); err == nil {
		t.Fatal("unknown transport accepted")
	}
	// Evolution errors propagate (negative k is rejected by core).
	if _, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), []float64{-1}, smallMode()); err == nil {
		t.Fatal("bad wavenumber accepted")
	}
	// A failing worker must abort the MP run with its error, not hang the
	// master (the worker never reports a failure over the protocol).
	d, cleanup, err := NewMP(m, "chan", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		_, _, err := d.Run(context.Background(), []float64{0.01, -1, 0.02}, smallMode())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mp run with bad wavenumber reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mp run with failing worker hung")
	}
}

func TestContextCancellation(t *testing.T) {
	m := model(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (&Pool{Model: m, Workers: 2}).Run(ctx, testKs(), smallMode()); err != context.Canceled {
		t.Fatalf("pool under canceled context: %v", err)
	}
	d, cleanup, err := NewMP(m, "chan", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if _, _, err := d.Run(ctx, testKs(), smallMode()); err != context.Canceled {
		t.Fatalf("mp under canceled context: %v", err)
	}
}

// TestBatchedSweepEquivalence: with mode.KBatch > 1 every backend hands out
// the same canonical grid-index blocks (batchBlocks) and evolves
// them in lockstep through EvolveBatchWith, so — at a fixed KBatch — the
// results must stay bitwise-identical across Pool, SharedPool and MP,
// sources included, exactly like the scalar sweep. The
// reference is a sequential mirror of the worker body with fresh arenas;
// KBatch accuracy against the scalar path itself is a core/spectra
// contract (TestBatchAgreesWithScalar, the <1e-3 C_l golden), not a
// dispatch one. Run under -race via make test-race.
func TestBatchedSweepEquivalence(t *testing.T) {
	m := model(t)
	ks := testKs()
	for _, b := range []int{1, 4, 8} {
		mode := core.Params{LMax: 40, Gauge: core.ConformalNewtonian, TauEnd: 400,
			KeepSources: true, FastEvolve: true, KBatch: b}
		perk := perKLMaxTable(ks, 400, mode.LMax, true)

		ref := make([]*core.Result, len(ks))
		if b > 1 {
			for _, blk := range batchBlocks(len(ks), b) {
				lo, hi := blk[0], blk[1]
				rs, err := m.EvolveBatchWith(ks[lo:hi], mode, perk[lo:hi], nil)
				if err != nil {
					t.Fatal(err)
				}
				copy(ref[lo:hi], rs)
			}
		} else {
			for i, k := range ks {
				pm := mode
				pm.K = k
				pm.LMax = perk[i]
				r, err := m.Evolve(pm)
				if err != nil {
					t.Fatal(err)
				}
				ref[i] = r
			}
		}

		check := func(label string, sw *Sweep) {
			t.Helper()
			for i := range ks {
				sameResult(t, label, ref[i], sw.Results[i])
				if !reflect.DeepEqual(ref[i].Sources, sw.Results[i].Sources) {
					t.Fatalf("%s: sources of mode %d differ from the sequential reference", label, i)
				}
			}
		}

		label := func(backend string) string {
			return backend + "/b=" + itoa(b)
		}
		pool := &Pool{Model: m, Workers: 3, AdaptLMax: true}
		sw, st, err := pool.Run(context.Background(), ks, mode)
		if err != nil {
			t.Fatal(err)
		}
		if st.Modes != len(ks) {
			t.Fatalf("%s: %d modes in stats, want %d", label("pool"), st.Modes, len(ks))
		}
		check(label("pool"), sw)

		shared := NewSharedPool(3)
		sw, st, err = shared.Sweep(context.Background(), m, ks, mode, true)
		shared.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Modes != len(ks) {
			t.Fatalf("%s: %d modes in stats, want %d", label("shared"), st.Modes, len(ks))
		}
		check(label("shared"), sw)

		d, cleanup, err := NewMP(m, "chan", 3)
		if err != nil {
			t.Fatal(err)
		}
		d.AdaptLMax = true
		sw, st, err = d.Run(context.Background(), ks, mode)
		cleanup()
		if err != nil {
			t.Fatal(err)
		}
		if st.Modes != len(ks) {
			t.Fatalf("%s: %d modes in stats, want %d", label("mp"), st.Modes, len(ks))
		}
		check(label("mp"), sw)
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
