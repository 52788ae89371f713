package core

import (
	"math"
	"reflect"
	"testing"
)

// batchKs is an unsorted block, like the grid-index blocks the dispatchers
// hand to EvolveBatchWith (sweep grids arrive in caller order).
var batchKs = []float64{0.012, 0.004, 0.03, 0.018}

// TestBatchAgreesWithScalar pins the accuracy contract of the lockstep
// batch: the shared step controller couples the members numerically, so
// the batched trajectory tracks the per-mode one to (a modest multiple of)
// the integrator tolerance, far inside the fast engine's 1e-3 C_l budget.
func TestBatchAgreesWithScalar(t *testing.T) {
	mdl := model(t)
	p := Params{LMax: 30, Gauge: ConformalNewtonian, TauEnd: 600,
		KeepSources: true, FastEvolve: true}

	batch, err := mdl.EvolveBatchWith(batchKs, p, nil, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range batchKs {
		pm := p
		pm.K = k
		ref, err := mdl.EvolveWith(pm, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		if got.K != k {
			t.Fatalf("member %d: K = %g, want %g", i, got.K, k)
		}
		if got.LMax != p.LMax {
			t.Fatalf("member %d: LMax = %d, want unified %d", i, got.LMax, p.LMax)
		}
		if len(got.Sources) == 0 {
			t.Fatalf("member %d: no sources recorded", i)
		}
		// Scale mixed relative/absolute per mode: the high moments pass
		// through zero, so a pure relative comparison is meaningless there.
		var scale float64
		for _, v := range ref.ThetaL {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for l := range ref.ThetaL {
			if d := math.Abs(got.ThetaL[l] - ref.ThetaL[l]); d > 2e-4*scale {
				t.Errorf("k=%g l=%d: ThetaL %g vs scalar %g (|d|=%.3g, scale %.3g)",
					k, l, got.ThetaL[l], ref.ThetaL[l], d, scale)
			}
		}
		for _, c := range [][2]float64{{got.DeltaC, ref.DeltaC}, {got.DeltaB, ref.DeltaB}, {got.Phi, ref.Phi}} {
			if rel := math.Abs(c[0]-c[1]) / math.Abs(c[1]); rel > 1e-4 {
				t.Errorf("k=%g: fluid/metric relative deviation %.3g", k, rel)
			}
		}
		if got.MaxConstraintResidual > 0.05 {
			t.Errorf("k=%g: constraint residual %g", k, got.MaxConstraintResidual)
		}
	}
}

// TestBatchDeterministic pins that a reused arena reproduces a fresh one
// bitwise — the property the dispatch equivalence tests lean on.
func TestBatchDeterministic(t *testing.T) {
	mdl := model(t)
	p := Params{LMax: 24, Gauge: ConformalNewtonian, TauEnd: 500,
		KeepSources: true, FastEvolve: true}
	sc := NewScratch()
	a, err := mdl.EvolveBatchWith(batchKs, p, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Run an unrelated batch in between to dirty every arena buffer.
	if _, err := mdl.EvolveBatchWith([]float64{0.05, 0.07}, p, nil, sc); err != nil {
		t.Fatal(err)
	}
	bres, err := mdl.EvolveBatchWith(batchKs, p, nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := mdl.EvolveBatchWith(batchKs, p, nil, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		a[i].Seconds, bres[i].Seconds, c[i].Seconds = 0, 0, 0
		if !reflect.DeepEqual(a[i], bres[i]) || !reflect.DeepEqual(a[i], c[i]) {
			t.Fatalf("member %d: batch results differ across arenas/reuse", i)
		}
	}
}

// TestBatchOfOneBitwiseScalar: EvolveWith and a one-member EvolveBatchWith
// are the same path now, a block of one through the one driver, and return
// the same bits.
func TestBatchOfOneBitwiseScalar(t *testing.T) {
	mdl := model(t)
	p := Params{K: 0.02, LMax: 24, Gauge: ConformalNewtonian, TauEnd: 500,
		KeepSources: true, FastEvolve: true}
	ref, err := mdl.EvolveWith(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mdl.EvolveBatchWith([]float64{0.02}, p, nil, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	ref.Seconds, got[0].Seconds = 0, 0
	if !reflect.DeepEqual(ref, got[0]) {
		t.Fatal("batch of one is not bitwise the scalar path")
	}
}

// TestBatchPerKLMax checks the unified-cutoff semantics: the batch runs at
// the largest per-k cutoff and reports it on every member.
func TestBatchPerKLMax(t *testing.T) {
	mdl := model(t)
	p := Params{LMax: 40, Gauge: ConformalNewtonian, TauEnd: 500, FastEvolve: true}
	perk := []int{12, 0, 30, 18}
	res, err := mdl.EvolveBatchWith(batchKs, p, perk, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.LMax != 40 { // perk entry 0 means p.LMax = 40
			t.Fatalf("member %d: LMax = %d, want 40", i, r.LMax)
		}
		if len(r.ThetaL) != 41 {
			t.Fatalf("member %d: len(ThetaL) = %d", i, len(r.ThetaL))
		}
	}
}

// TestBatchErrors covers the argument contract.
func TestBatchErrors(t *testing.T) {
	mdl := model(t)
	p := Params{LMax: 16, Gauge: ConformalNewtonian}
	if _, err := mdl.EvolveBatch(nil, p); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := mdl.EvolveBatchWith([]float64{0.01, 0.02}, p, []int{8}, nil); err == nil {
		t.Fatal("mismatched per-k cutoffs accepted")
	}
	if _, err := mdl.EvolveBatch([]float64{0.01, -0.02}, p); err == nil {
		t.Fatal("negative k accepted")
	}
}
