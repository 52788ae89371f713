package dispatch

import (
	"math"
	"slices"
	"testing"
	"time"

	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
)

// TestWorkerRejectsMalformedAssignment: an assignment that does not name a
// block of the grid by 1-3 finite integers, at a cutoff no larger than the
// broadcast one, ends the worker with an error, and so does an init block
// that does not fit the worker: a non-finite or non-positive end time, a
// cutoff above its own, another grid size, an unknown gauge, a non-finite
// or negative rtol, a keep flag other than 0 or 1. An empty payload used to
// index past its end, and a block size of 1e300 converted to -2^63 and
// passed the range check into a slice expression; both panicked the worker
// process. A NaN end time integrated without end, an unknown gauge indexed
// a table at -1, and a cutoff of 1e12 in either block was a fatal
// out-of-memory error no recover catches.
func TestWorkerRejectsMalformedAssignment(t *testing.T) {
	m := model(t)
	ks := testKs()
	good := []float64{300, 10, float64(len(ks)), 0, 0, 0}
	init := func(slot int, v float64) []float64 {
		y := slices.Clone(good)
		y[slot] = v
		return y
	}
	nan, inf := math.NaN(), math.Inf(1)
	// A row with a nil assignment is refused at its init: the worker must
	// return without asking for work.
	for _, row := range []struct{ init, assign []float64 }{
		{good, []float64{}}, {good, []float64{1, 0, 1e300}}, {good, []float64{nan}}, {good, []float64{1.5}},
		{good, []float64{0}}, {good, []float64{8}}, {good, []float64{7, 0, 2}}, {good, []float64{1, inf}},
		{good, []float64{1, -4}}, {good, []float64{1, 0, 0}}, {good, []float64{1, 0, 2, 0}},
		{good, []float64{1, 1e12}}, {good, []float64{1, 11}},
		{init(0, nan), nil}, {init(0, inf), nil}, {init(0, 0), nil}, {init(0, -300), nil},
		{init(1, 1e12), nil}, {init(1, 11), nil}, {init(1, -1), nil}, {init(1, 2.5), nil},
		{init(2, float64(len(ks)+1)), nil}, {init(2, float64(len(ks)-1)), nil},
		{init(3, 7), nil}, {init(3, nan), nil}, {init(3, -1), nil},
		{init(4, nan), nil}, {init(4, inf), nil}, {init(4, -1e-6), nil},
		{init(5, 2), nil}, {init(5, 0.5), nil}, {init(5, nan), nil},
	} {
		_, eps, err := chanmp.New(2)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- Worker(eps[1], m, ks, smallMode(), nil) }()
		if err := eps[0].Bcast(mp.TagInit, row.init); err != nil {
			t.Fatal(err)
		}
		if row.assign != nil {
			if _, err := eps[0].Recv(mp.TagRequest, 1); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Send(1, mp.TagAssign, row.assign); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case err := <-errc:
			if err == nil {
				t.Errorf("init %v, assignment %v accepted", row.init, row.assign)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("init %v, assignment %v: worker neither failed nor returned", row.init, row.assign)
		}
		for _, ep := range eps {
			ep.Close()
		}
	}
}
