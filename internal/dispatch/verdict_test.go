package dispatch

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
)

// verdictRow is what a scripted rank 2 sends after taking its first
// assignment ik1; r is a well-formed result for that wavenumber.
type verdictRow struct {
	name string
	// keep runs the sweep with KeepSources (Newtonian gauge).
	keep bool
	send func(ik1 int, r *core.Result) []mp.Message
}

func msg(tag int, data []float64) mp.Message { return mp.Message{Tag: tag, Data: data} }

func verdictRows() []verdictRow {
	return []verdictRow{
		{name: "moments without a summary", send: func(ik1 int, r *core.Result) []mp.Message {
			return []mp.Message{msg(mp.TagMoments, packMoments(ik1, r))}
		}},
		{name: "sources without moments", send: func(ik1 int, r *core.Result) []mp.Message {
			return []mp.Message{msg(mp.TagSummary, packSummary(ik1, r)), msg(mp.TagSources, packSources(ik1, r))}
		}},
		{name: "a second summary", send: func(ik1 int, r *core.Result) []mp.Message {
			return []mp.Message{msg(mp.TagSummary, packSummary(ik1, r)), msg(mp.TagSummary, packSummary(ik1, r))}
		}},
		{name: "tag 9", send: func(int, *core.Result) []mp.Message {
			return []mp.Message{msg(9, []float64{0})}
		}},
		{name: "TagDown sent by a worker", send: func(int, *core.Result) []mp.Message {
			return []mp.Message{msg(mp.TagDown, []float64{2})}
		}},
		{name: "a result for index 99", send: func(_ int, r *core.Result) []mp.Message {
			return []mp.Message{msg(mp.TagSummary, packSummary(99, r)), msg(mp.TagMoments, packMoments(99, r))}
		}},
		{name: "a 3-double moments block", send: func(ik1 int, r *core.Result) []mp.Message {
			return []mp.Message{msg(mp.TagSummary, packSummary(ik1, r)), msg(mp.TagMoments, packMoments(ik1, r)[:3])}
		}},
		// int(NaN) is -2^63 on amd64, so 2*(lmax+1) wrapped to 2 and a
		// 10-double block passed the length test into a panicking slice.
		{name: "a NaN cutoff with a 10-double moments block", send: func(ik1 int, r *core.Result) []mp.Message {
			sum := packSummary(ik1, r)
			sum[sumLMax] = math.NaN()
			return []mp.Message{msg(mp.TagSummary, sum), msg(mp.TagMoments, packMoments(ik1, r)[:10])}
		}},
		// 17 times this count wraps to 4096, so a 4099-double block passed
		// the length test and the sample slice could not be made.
		{name: "a sample count that wraps", keep: true, send: func(ik1 int, r *core.Result) []mp.Message {
			src := make([]float64, 4099)
			src[0], src[1], src[2] = float64(ik1), 1085102592571150336, sourceFieldLen
			return []mp.Message{msg(mp.TagSummary, packSummary(ik1, r)), msg(mp.TagMoments, packMoments(ik1, r)), msg(mp.TagSources, src)}
		}},
	}
}

// TestMasterVerdicts runs each row in a chan world of one real worker and
// the scripted rank 2. The master fails exactly rank 2 — no deadline miss,
// its block reassigned once to the real worker, every mode bitwise the
// serial one.
func TestMasterVerdicts(t *testing.T) {
	m := model(t)
	ks := testKs()
	for _, row := range verdictRows() {
		mode := verdictMode(row.keep)
		t.Run(row.name, func(t *testing.T) {
			res, err := runVerdict(t, m, ks, mode, func(ik1 int) []mp.Message {
				return row.send(ik1, fakeResult(ks[ik1-1], mode.LMax))
			}, false)
			if err != nil {
				t.Fatalf("master: %v", err)
			}
			if !reflect.DeepEqual(res.failed, []int{2}) || res.st.WorkerFailures != 1 ||
				res.st.DeadlineMisses != 0 || res.st.Reassignments != 1 || res.st.LocalModes != 0 {
				t.Fatalf("FailedRanks %v, WorkerFailures %d, DeadlineMisses %d, Reassignments %d, LocalModes %d; want rank 2 failed once and its block reassigned once",
					res.failed, res.st.WorkerFailures, res.st.DeadlineMisses, res.st.Reassignments, res.st.LocalModes)
			}
			sameAsSerial(t, m, ks, mode, res.sw)
		})
	}
}

// verdictMode is the sweep a row runs: with keep, one that carries sources.
func verdictMode(keep bool) core.Params {
	mode := smallMode()
	if keep {
		mode.Gauge = core.ConformalNewtonian
		mode.KeepSources = true
	}
	return mode
}

// runVerdict plays one script: rank 2 takes the init and an assignment for
// wavenumber ik1, sends send(ik1), and only then does the real worker at
// rank 1 start, so the master meets the messages before any other request.
// With report, rank 2's death is then reported the way MP.Run reports it.
func runVerdict(t *testing.T, m *core.Model, ks []float64, mode core.Params, send func(ik1 int) []mp.Message, report bool) (verdictRun, error) {
	t.Helper()
	_, eps, err := chanmp.New(3)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan struct{})
	scriptErr := make(chan error, 1)
	go func() {
		defer close(ready)
		scriptErr <- func() error {
			ep := eps[2]
			if _, err := ep.Recv(mp.TagInit, 0); err != nil {
				return err
			}
			if err := ep.Send(0, mp.TagRequest, []float64{0}); err != nil {
				return err
			}
			a, err := ep.Recv(mp.TagAssign, 0)
			if err != nil {
				return err
			}
			for _, out := range send(int(a.Data[0])) {
				if err := ep.Send(0, out.Tag, out.Data); err != nil {
					return err
				}
			}
			if report {
				return eps[0].Send(0, mp.TagDown, []float64{2})
			}
			return nil
		}()
	}()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		<-ready
		_ = Worker(eps[1], m, ks, mode, nil)
	}()

	type outcome struct {
		res verdictRun
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		sw, st, failed, err := RunMaster(context.Background(), eps[0], m, ks, mode, MasterOptions{})
		out <- outcome{verdictRun{sw, st, failed}, err}
	}()
	var o outcome
	select {
	case o = <-out:
	case <-time.After(10 * time.Second):
		t.Fatal("master did not return")
	}
	for _, ep := range eps {
		ep.Close()
	}
	<-workerDone
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted worker: %v", err)
	}
	return o.res, o.err
}

// verdictRun is what RunMaster returned for one row.
type verdictRun struct {
	sw     *Sweep
	st     *RunStats
	failed []int
}

// sameAsSerial checks every number the wire carries for every mode against
// a direct evolution, bit for bit; only the timing slot may differ.
func sameAsSerial(t *testing.T, m *core.Model, ks []float64, mode core.Params, res *Sweep) {
	t.Helper()
	bits := func(y []float64, skip int) []uint64 {
		out := make([]uint64, len(y))
		for i, v := range y {
			if i != skip {
				out[i] = math.Float64bits(v)
			}
		}
		return out
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
		if !reflect.DeepEqual(bits(packSummary(i+1, got), sumSeconds), bits(packSummary(i+1, want), sumSeconds)) ||
			!reflect.DeepEqual(bits(packMoments(i+1, got), 6), bits(packMoments(i+1, want), 6)) ||
			!reflect.DeepEqual(got.Sources, want.Sources) {
			t.Fatalf("mode %d (k=%g) differs from the serial evolution", i, k)
		}
	}
}
