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
// other worker has asked for work and been parked, so nobody is left to
// message the master and it sits in a timed probe bounded by the casualty's
// deadline. The death report is a message on the master's own endpoint, so
// it ends that wait at once: the master is back long before the 10 s
// assignment deadline, with the orphaned block re-run and every mode
// bitwise the serial one.
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

// watchMoments signals done once its worker has sent n tag-5 blocks, the
// last block of its n-th mode.
type watchMoments struct {
	mp.Endpoint
	n    int
	done chan struct{}
}

func (w *watchMoments) Send(dst, tag int, data []float64) error {
	err := w.Endpoint.Send(dst, tag, data)
	if tag == mp.TagMoments {
		if w.n--; w.n == 0 {
			close(w.done)
		}
	}
	return err
}

// TestParkedWorkerTakesLateOrphan: rank 2 takes the first block handed out
// and holds it; the real worker at rank 1 computes every other block and, with
// nothing left, asks for more. Only then is rank 2's death reported. The
// master parked rank 1 instead of stopping it, so the orphan goes to rank 1:
// one reassignment, no mode recomputed by the master, and every result
// bitwise the pool's.
func TestParkedWorkerTakesLateOrphan(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := smallMode()
	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	_, eps, err := chanmp.New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	const dying = 2
	asked := &watchMoments{Endpoint: eps[1], n: len(ks) - 1, done: make(chan struct{})}
	held := make(chan struct{})
	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			defer close(held)
			ep := eps[dying]
			if _, err := ep.Recv(mp.TagInit, 0); err != nil {
				return err
			}
			if err := ep.Send(0, mp.TagRequest, []float64{0}); err != nil {
				return err
			}
			_, err := ep.Recv(mp.TagAssign, 0)
			return err
		}()
		<-asked.done
		_ = eps[0].Send(0, mp.TagDown, []float64{dying})
	}()
	workerErr := make(chan error, 1)
	go func() {
		<-held
		workerErr <- Worker(asked, m, ks, mode, nil)
	}()

	type outcome struct {
		sw     *Sweep
		st     *RunStats
		failed []int
		err    error
	}
	out := make(chan outcome, 1)
	go func() {
		sw, st, failed, err := RunMaster(context.Background(), eps[0], m, ks, mode, MasterOptions{})
		out <- outcome{sw, st, failed, err}
	}()
	var o outcome
	select {
	case o = <-out:
	case <-time.After(10 * time.Second):
		t.Fatal("master did not return")
	}
	if o.err != nil {
		t.Fatalf("master: %v", o.err)
	}
	for _, ch := range []chan error{scriptErr, workerErr} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(o.failed, []int{dying}) || o.st.Reassignments != 1 || o.st.LocalModes != 0 {
		t.Fatalf("FailedRanks %v, Reassignments %d, LocalModes %d; want rank %d failed and its block re-run by rank 1, none by the master",
			o.failed, o.st.Reassignments, o.st.LocalModes, dying)
	}
	for i := range ks {
		sameResult(t, "parked", ref.Results[i], o.sw.Results[i])
	}
}
