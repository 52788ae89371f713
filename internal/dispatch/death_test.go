package dispatch

import (
	"context"
	"reflect"
	"testing"
	"time"

	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
)

// TestLateDeathReportWakesMaster: a worker dies holding a block after every
// other worker has been stopped, so nobody is left to message the master and
// it sits in a timed probe bounded by the casualty's deadline. The death
// report is a message on the master's own endpoint, so it ends that wait at
// once: the master is back long before the 10 s assignment deadline, with
// the orphaned block recomputed and every mode bitwise the serial one.
func TestLateDeathReportWakesMaster(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := smallMode()
	_, eps, err := chanmp.New(3)
	if err != nil {
		t.Fatal(err)
	}
	const dying = 2
	reportAt := time.Now().Add(1500 * time.Millisecond)

	workerErr := make(chan error, 1)
	go func() { workerErr <- Worker(eps[1], m, ks, mode, nil) }()
	scriptErr := make(chan error, 1)
	go func() {
		// Take the init and one assignment like a worker, then die silently
		// and have the death noticed late.
		scriptErr <- func() error {
			ep := eps[dying]
			if _, err := ep.Recv(mp.TagInit, ep.Master()); err != nil {
				return err
			}
			if err := ep.Send(ep.Master(), mp.TagRequest, []float64{0}); err != nil {
				return err
			}
			if _, err := ep.Recv(mp.TagAssign, ep.Master()); err != nil {
				return err
			}
			time.Sleep(time.Until(reportAt))
			return eps[0].Send(eps[0].Rank(), mp.TagDown, []float64{dying})
		}()
	}()

	start := time.Now()
	res, st, failed, err := RunMaster(context.Background(), eps[0], m, ks, mode, MasterOptions{AssignDeadline: 10 * time.Second})
	took := time.Since(start)
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	for _, ch := range []chan error{workerErr, scriptErr} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if took > 3*time.Second {
		t.Errorf("master returned after %v: the death report at 1.5 s did not wake it", took)
	}
	if st.WorkerFailures != 1 || !reflect.DeepEqual(failed, []int{dying}) {
		t.Errorf("WorkerFailures %d, FailedRanks %v, want the one scripted casualty", st.WorkerFailures, failed)
	}
	for i, k := range ks {
		p := mode
		p.K = k
		want, err := m.Evolve(p)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Results[i]
		if got == nil {
			t.Fatalf("mode %d (k=%g) missing", i, k)
		}
		if !reflect.DeepEqual(got.ThetaL, want.ThetaL) || !reflect.DeepEqual(got.ThetaPL, want.ThetaPL) ||
			got.DeltaC != want.DeltaC || got.DeltaB != want.DeltaB || got.Eta != want.Eta || got.HDot != want.HDot ||
			got.Stats.Steps != want.Stats.Steps {
			t.Errorf("mode %d (k=%g) differs from the serial evolution", i, k)
		}
	}
}
