package dispatch

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/fault"
	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
	"plinger/internal/mp/fifomp"
)

// chaosMode keeps the recovery sweeps fast while still exercising the full
// three-message result protocol (sources ride on tag 7, so reassignment
// must preserve them bitwise too).
func chaosMode() core.Params {
	return core.Params{LMax: 10, Gauge: core.Synchronous, TauEnd: 300, KeepSources: true}
}

// chaosDeadline bounds each assignment round trip in the recovery tests:
// generous against CI scheduling noise (a healthy mode takes milliseconds),
// short enough that a hung worker costs one beat, not the test budget.
const chaosDeadline = 800 * time.Millisecond

// chaosWorld builds an n-endpoint world of the named transport so the tests
// can put a fault plan on individual worker endpoints before handing them to MP.
func chaosWorld(t *testing.T, transport string, n int) ([]mp.Endpoint, func()) {
	t.Helper()
	closeAll := func(eps []mp.Endpoint) func() {
		return func() {
			for _, ep := range eps {
				ep.Close()
			}
		}
	}
	switch transport {
	case "chan":
		_, eps, err := chanmp.New(n)
		if err != nil {
			t.Fatal(err)
		}
		return eps, closeAll(eps)
	case "fifo":
		_, eps, err := fifomp.New(n)
		if err != nil {
			t.Fatal(err)
		}
		return eps, closeAll(eps)
	case "tcp":
		d, cleanup, err := NewMP(nil, "tcp", n-1)
		if err != nil {
			t.Fatal(err)
		}
		return d.Endpoints, cleanup
	}
	t.Fatalf("unknown transport %q", transport)
	return nil, nil
}

// checkRecovered asserts the fault-tolerance acceptance criterion: a
// recovered sweep is bitwise-identical to the undisturbed reference —
// sources included — and no mode is lost or double-counted.
func checkRecovered(t *testing.T, label string, ref, sw *Sweep, st *RunStats, nModes int) {
	t.Helper()
	for i := range ref.Results {
		sameResult(t, label, ref.Results[i], sw.Results[i])
		if !reflect.DeepEqual(ref.Results[i].Sources, sw.Results[i].Sources) {
			t.Fatalf("%s: sources of mode %d differ from the undisturbed reference", label, i)
		}
	}
	if st.Modes != nModes {
		t.Fatalf("%s: %d modes in stats, want %d", label, st.Modes, nModes)
	}
	modes := 0
	for _, w := range st.Workers {
		modes += w.Modes
	}
	if modes != nModes {
		t.Fatalf("%s: worker timings credit %d modes, want %d (duplicates must be first-wins)", label, modes, nModes)
	}
}

// killAfterFirst puts {After: 1, Then: Kill} on the endpoints of ranks: each
// dies holding its first block. The plans are returned for requireKilled.
func killAfterFirst(eps []mp.Endpoint, seed int64, ranks ...int) []*fault.Endpoint {
	var fs []*fault.Endpoint
	for i, r := range ranks {
		f := fault.Wrap(eps[r], fault.Plan{Seed: seed + int64(i), After: 1, Then: fault.Kill})
		eps[r] = f
		fs = append(fs, f)
	}
	return fs
}

// requireKilled asserts on each plan's own Stats that its kill struck after
// exactly one assignment and refused the worker's next operation.
func requireKilled(t *testing.T, label string, fs []*fault.Endpoint) {
	t.Helper()
	for i, f := range fs {
		if st := f.Stats(); st.Ops != 1 || st.Killed == 0 {
			t.Fatalf("%s: plan %d did not kill after one assignment: %+v", label, i, st)
		}
	}
}

// TestChaosMatrix is the tentpole acceptance test: one worker per run is
// scripted to crash mid-assignment, hang, or randomly lose messages —
// across every transport — and the sweep must still complete with results
// bitwise-identical to an undisturbed run.
func TestChaosMatrix(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := chaosMode()
	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	faults := []struct {
		name string
		plan fault.Plan
		// orphan: the fault strikes with a block in flight, so recovery must
		// reassign or locally recompute it. A drop-faulted worker may instead
		// lose its start-up request and die having never held work.
		orphan bool
	}{
		// Crash: the assignment is delivered, then the worker dies with the
		// block in flight. Detected out-of-band or by transport errors.
		{"kill", fault.Plan{Seed: 11, After: 1, Then: fault.Kill}, true},
		// Hang: the worker wedges silently after its first assignment. Only
		// the deadline can see this one.
		{"hang", fault.Plan{Seed: 12, After: 1, Then: fault.Hang}, true},
		// Lossy link: half the worker's messages vanish; the master sees
		// protocol violations or silence and fails the worker.
		{"drop", fault.Plan{Seed: 13, Drop: 0.5}, false},
	}
	for _, tr := range []string{"chan", "fifo", "tcp"} {
		for _, f := range faults {
			label := tr + "/" + f.name
			// With 7 modes and 3 workers the wrapped worker can lose the
			// start-up race and never be handed a block, so its fault never
			// fires: such a run must still match the reference, and the cell
			// is run again so that every cell exercises a recovery.
			fired := false
			for attempt := 0; attempt < 5 && !fired; attempt++ {
				eps, cleanup := chaosWorld(t, tr, 4)
				faulty := fault.Wrap(eps[1], f.plan)
				eps[1] = faulty
				d := &MP{Model: m, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/" + tr, AssignDeadline: chaosDeadline}}
				sw, st, err := d.Run(context.Background(), ks, mode)
				cleanup()
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", label, err)
				}
				checkRecovered(t, label, ref, sw, st, len(ks))
				fs := faulty.Stats()
				if fired = fs.Killed+fs.Hung+fs.Drops > 0; !fired {
					continue
				}
				if st.WorkerFailures == 0 {
					t.Fatalf("%s: fault injected but no worker failure recorded", label)
				}
				if f.orphan && st.Reassignments+st.LocalModes == 0 {
					t.Fatalf("%s: failed worker's block neither reassigned nor recomputed: %+v", label, st)
				}
				if f.name == "hang" && st.DeadlineMisses == 0 {
					t.Fatalf("%s: hung worker recovered without a deadline miss", label)
				}
			}
			if !fired {
				t.Fatalf("%s: the fault never fired in 5 runs", label)
			}
		}
	}
}

// Killing every worker but one mid-sweep must degrade to a slower but
// bitwise-identical run on the survivor.
func TestChaosKillAllButOne(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := chaosMode()
	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	eps, cleanup := chaosWorld(t, "chan", 4)
	defer cleanup()
	killed := killAfterFirst(eps, 21, 1, 2)
	d := &MP{Model: m, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/chan", AssignDeadline: chaosDeadline}}
	sw, st, err := d.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkerFailures != 2 {
		t.Fatalf("worker failures %d, want 2", st.WorkerFailures)
	}
	checkRecovered(t, "kill-all-but-one", ref, sw, st, len(ks))
	requireKilled(t, "kill-all-but-one", killed)
}

// With every worker lost the master must finish the sweep itself — the
// degradation path the paper's "this has no fault tolerance" protocol
// lacked — and still match the undisturbed run bitwise.
func TestChaosAllWorkersLost(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := chaosMode()
	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	eps, cleanup := chaosWorld(t, "chan", 3)
	defer cleanup()
	// Both workers die on their first result send: no worker result ever
	// reaches the master.
	killed := killAfterFirst(eps, 31, 1, 2)
	d := &MP{Model: m, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/chan", AssignDeadline: chaosDeadline}}
	sw, st, err := d.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkerFailures != 2 {
		t.Fatalf("worker failures %d, want 2", st.WorkerFailures)
	}
	if st.LocalModes != len(ks) {
		t.Fatalf("master recomputed %d modes locally, want all %d", st.LocalModes, len(ks))
	}
	master := false
	for _, w := range st.Workers {
		if w.Rank == 0 && w.Modes == len(ks) {
			master = true
		}
	}
	if !master {
		t.Fatalf("master's local recompute missing from the timings: %+v", st.Workers)
	}
	checkRecovered(t, "all-workers-lost", ref, sw, st, len(ks))
	requireKilled(t, "all-workers-lost", killed)
}

// With no AssignDeadline and no deadline on the context the master still
// recovers: a worker killed after its first block reports its death, and
// the sweep is bitwise the undisturbed one.
func TestChaosDefaultBudgetRecovers(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := chaosMode()
	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	eps, cleanup := chaosWorld(t, "chan", 3)
	defer cleanup()
	killed := killAfterFirst(eps, 41, 1)
	d := &MP{Model: m, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/chan"}}
	sw, st, err := d.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatalf("default budget did not recover: %v", err)
	}
	if st.WorkerFailures != 1 {
		t.Fatalf("worker failures %d, want 1", st.WorkerFailures)
	}
	checkRecovered(t, "default-budget", ref, sw, st, len(ks))
	requireKilled(t, "default-budget", killed)
}

// TestLoneMasterComputesLocally: a world of the master alone has no worker
// to wait for, so the master evolves every mode itself, bitwise the serial
// evolution.
func TestLoneMasterComputesLocally(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := smallMode()
	_, eps, err := chanmp.New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	type outcome struct {
		sw  *Sweep
		st  *RunStats
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		sw, st, _, err := RunMaster(context.Background(), eps[0], m, ks, mode, MasterOptions{})
		out <- outcome{sw, st, err}
	}()
	var o outcome
	select {
	case o = <-out:
	case <-time.After(5 * time.Second):
		t.Fatal("a master with no workers did not return")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.st.LocalModes != len(ks) {
		t.Fatalf("master recomputed %d modes locally, want all %d", o.st.LocalModes, len(ks))
	}
	sameAsSerial(t, m, ks, mode, o.sw)
}

// A lockstep batch block must be re-run WHOLE on reassignment — its
// trajectories depend on every member — so a recovered batched sweep stays
// bitwise-identical at fixed KBatch.
func TestChaosBatchedBlockReassignment(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := chaosMode()
	mode.KBatch = 3
	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	eps, cleanup := chaosWorld(t, "chan", 3)
	defer cleanup()
	killed := killAfterFirst(eps, 51, 1)
	d := &MP{Model: m, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/chan", AssignDeadline: chaosDeadline}}
	sw, st, err := d.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkerFailures != 1 {
		t.Fatalf("worker failures %d, want 1", st.WorkerFailures)
	}
	checkRecovered(t, "batched-reassign", ref, sw, st, len(ks))
	requireKilled(t, "batched-reassign", killed)
}

// Worker panics must surface as errors that name the panic, not crash the
// process: the pool sweeps abort with it, and an MP run whose every worker
// panics fails when the master's local recompute panics too.
func TestWorkerPanicRecovery(t *testing.T) {
	broken := core.NewModel(nil, nil) // every evolution panics on the nil background
	ks := testKs()[:3]
	mode := smallMode()
	if _, _, err := (&Pool{Model: broken, Workers: 2}).Run(context.Background(), ks, mode); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("pool worker panic: %v", err)
	}
	sp := NewSharedPool(2)
	_, _, err := sp.Sweep(context.Background(), broken, ks, mode, false)
	sp.Close()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("shared pool worker panic: %v", err)
	}
	eps, cleanup := chaosWorld(t, "chan", 3)
	defer cleanup()
	d := &MP{Model: broken, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/chan"}}
	if _, _, err := d.Run(context.Background(), ks, mode); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("mp worker panic: %v", err)
	}
}

// The master's own degradation path carries the same guard: when the local
// recompute panics, the run fails with an error instead of the process.
func TestLocalRecomputePanicGuard(t *testing.T) {
	broken := core.NewModel(nil, nil)
	eps, cleanup := chaosWorld(t, "chan", 2)
	defer cleanup()
	d := &MP{Model: broken, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/chan", AssignDeadline: 2 * time.Second}}
	_, _, err := d.Run(context.Background(), testKs()[:2], smallMode())
	if err == nil || !strings.Contains(err.Error(), "local recompute") {
		t.Fatalf("local recompute panic: %v", err)
	}
}

// TestModeSecondsCountsEachModeOnce: an MP sweep of n modes adds exactly n
// observations to plinger_sweep_mode_seconds, whether the workers evolve
// every mode or all die holding their first block and the master recomputes
// the sweep locally.
func TestModeSecondsCountsEachModeOnce(t *testing.T) {
	m := model(t)
	ks := testKs()
	for _, killAll := range []bool{false, true} {
		eps, cleanup := chaosWorld(t, "chan", 3)
		if killAll {
			killAfterFirst(eps, 51, 1, 2)
		}
		d := &MP{Model: m, Endpoints: eps, MasterOptions: MasterOptions{Backend: "mp/chan", AssignDeadline: chaosDeadline}}
		before := obsModeSeconds.Snapshot().Count
		_, st, err := d.Run(context.Background(), ks, chaosMode())
		cleanup()
		if err != nil {
			t.Fatal(err)
		}
		if killAll && st.LocalModes != len(ks) {
			t.Fatalf("master recomputed %d modes locally, want all %d", st.LocalModes, len(ks))
		}
		if got := obsModeSeconds.Snapshot().Count - before; got != uint64(len(ks)) {
			t.Errorf("killAll=%v: %d mode observations for %d modes", killAll, got, len(ks))
		}
	}
}
