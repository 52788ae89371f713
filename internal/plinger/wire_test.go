package plinger

import (
	"math"
	"testing"
	"time"

	"plinger/internal/mp/chanmp"
)

// TestWorkerRejectsMalformedAssignment: an assignment that does not name a
// block of the grid by 1-3 finite integers ends the worker with an error.
// An empty payload used to index past its end, and a block size of 1e300
// converted to -2^63 and passed the range check into a slice expression;
// both panicked the worker process.
func TestWorkerRejectsMalformedAssignment(t *testing.T) {
	m := model(t)
	ks := testKs()
	for _, a := range [][]float64{
		{}, {1, 0, 1e300}, {math.NaN()}, {1.5}, {0}, {8}, {7, 0, 2},
		{1, math.Inf(1)}, {1, -4}, {1, 0, 0}, {1, 0, 2, 0},
	} {
		_, eps, err := chanmp.New(2)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- Worker(eps[1], m, ks, smallMode()) }()
		if err := eps[0].Bcast(TagInit, []float64{300, 10, float64(len(ks)), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := eps[0].Recv(TagRequest, 1); err != nil {
			t.Fatal(err)
		}
		if err := eps[0].Send(1, TagAssign, a); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if err == nil {
				t.Errorf("assignment %v accepted", a)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("assignment %v: worker neither failed nor returned", a)
		}
		for _, ep := range eps {
			ep.Close()
		}
	}
}
