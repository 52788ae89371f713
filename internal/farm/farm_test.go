package farm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/dispatch"
	"plinger/internal/fault"
	"plinger/internal/mp/tcpmp"
)

var (
	testCache   = NewModelCache()
	testModelMu sync.Mutex
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	testModelMu.Lock()
	defer testModelMu.Unlock()
	m, err := testCache.Get(cosmology.SCDM())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testKs() []float64 { return []float64{0.002, 0.012, 0.03, 0.05, 0.075, 0.02, 0.008} }

func smallMode() core.Params {
	return core.Params{LMax: 10, Gauge: core.Synchronous, TauEnd: 300}
}

// sameResult asserts bitwise equality of every deterministic field; only
// wallclock timing may differ between backends (dispatch's contract).
func sameResult(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: missing result", label)
	}
	if a.K != b.K || a.Tau != b.Tau || a.A != b.A || a.Gauge != b.Gauge || a.LMax != b.LMax {
		t.Fatalf("%s: header differs", label)
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

func poolReference(t *testing.T, ks []float64, mode core.Params) *dispatch.Sweep {
	t.Helper()
	p := &dispatch.Pool{Model: testModel(t), Workers: 2}
	sw, _, err := p.Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func testSupervisor(t *testing.T, opt Options) *Supervisor {
	t.Helper()
	if opt.Heartbeat == 0 {
		opt.Heartbeat = 50 * time.Millisecond
	}
	if opt.AssignDeadline == 0 {
		opt.AssignDeadline = 5 * time.Second
	}
	if opt.WaitWorkers == 0 {
		opt.WaitWorkers = 5 * time.Second
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// testWorker is an in-process stand-in for one plingerw process: it dials
// the supervisor and serves sweeps on a goroutine, optionally through a
// failing connection.
type testWorker struct {
	conn net.Conn
	done chan error
}

func startTestWorker(t *testing.T, s *Supervisor, uid string, rejoins int, wrap func(net.Conn) net.Conn) *testWorker {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		c = wrap(c)
	}
	w := &testWorker{conn: c, done: make(chan error, 1)}
	go func() {
		w.done <- ServeWorker(c, WorkerOptions{UID: uid, Rejoins: rejoins, Models: testCache, Scratch: core.NewScratch()})
		c.Close()
	}()
	t.Cleanup(func() { c.Close() })
	return w
}

func waitAlive(t *testing.T, s *Supervisor, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Alive() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("roster never reached %d workers (at %d)", want, s.Alive())
}

// The farm's core contract: a sweep over out-of-process workers is
// bitwise-identical to the in-process pool, cold and warm, scalar and
// batched.
func TestFarmSweepMatchesPool(t *testing.T) {
	s := testSupervisor(t, Options{MinWorkers: 2})
	startTestWorker(t, s, "w1", 0, nil)
	startTestWorker(t, s, "w2", 0, nil)
	waitAlive(t, s, 2)

	model := testModel(t)
	for _, tc := range []struct {
		label string
		mode  core.Params
	}{
		{"scalar", smallMode()},
		{"kbatch", func() core.Params { m := smallMode(); m.KBatch = 3; return m }()},
	} {
		ref := poolReference(t, testKs(), tc.mode)
		for pass := 0; pass < 2; pass++ { // cold then warm
			sw, st, err := s.Sweep(context.Background(), model, testKs(), tc.mode, dispatch.LargestFirst, false)
			if err != nil {
				t.Fatalf("%s pass %d: %v", tc.label, pass, err)
			}
			for i := range ref.Results {
				sameResult(t, fmt.Sprintf("%s pass %d mode %d", tc.label, pass, i), sw.Results[i], ref.Results[i])
			}
			if st.Backend != "farm" || st.NWorkers != 2 || st.WorkerFailures != 0 {
				t.Fatalf("%s pass %d: unexpected stats %+v", tc.label, pass, st)
			}
			if sw.Tau0 != ref.Tau0 {
				t.Fatalf("%s: tau0 differs", tc.label)
			}
		}
	}
	if got := s.Status(); got.Sweeps != 4 || got.Alive != 2 {
		t.Fatalf("status: %+v", got)
	}
}

// A worker lost mid-sweep costs reassignments, never correctness; its
// reconnection (same UID) is re-admitted for the following sweep.
func TestFarmWorkerLossMidSweepRecoversBitwise(t *testing.T) {
	s := testSupervisor(t, Options{MinWorkers: 2, AssignDeadline: 2 * time.Second})
	startTestWorker(t, s, "stable", 0, nil)
	// Enough writes to get through magic+hello and the first result
	// frames, then death in the middle of the sweep.
	var plan *fault.Conn
	flaky := startTestWorker(t, s, "flaky", 0, func(c net.Conn) net.Conn {
		plan = fault.WrapConn(c, fault.Plan{After: 8, Then: fault.Kill})
		return plan
	})
	waitAlive(t, s, 2)

	mode := smallMode()
	ref := poolReference(t, testKs(), mode)
	sw, st, err := s.Sweep(context.Background(), testModel(t), testKs(), mode, dispatch.LargestFirst, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Results {
		sameResult(t, fmt.Sprintf("mode %d", i), sw.Results[i], ref.Results[i])
	}
	if st.WorkerFailures < 1 {
		t.Fatalf("expected at least one worker failure, got %+v", st)
	}
	<-flaky.done // the injected death also ends the worker session
	if fs := plan.Stats(); fs.Ops < 8 || fs.Killed == 0 {
		t.Fatalf("plan stats %+v, want the kill struck after 8 writes", fs)
	}
	waitAlive(t, s, 1)

	// The casualty comes back under its UID: next sweep runs on two again.
	startTestWorker(t, s, "flaky", 1, nil)
	waitAlive(t, s, 2)
	sw2, st2, err := s.Sweep(context.Background(), testModel(t), testKs(), mode, dispatch.LargestFirst, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Results {
		sameResult(t, fmt.Sprintf("rejoined mode %d", i), sw2.Results[i], ref.Results[i])
	}
	if st2.NWorkers != 2 || st2.WorkerFailures != 0 {
		t.Fatalf("rejoined sweep stats: %+v", st2)
	}
	if got := s.Status(); got.Reconnects < 1 {
		t.Fatalf("reconnect not counted: %+v", got)
	}
}

// With no workers at all the farm degrades exactly like PR 7's
// all-workers-lost path: the master computes the sweep itself.
func TestFarmZeroWorkersComputesLocally(t *testing.T) {
	s := testSupervisor(t, Options{MinWorkers: 0, WaitWorkers: 50 * time.Millisecond})
	mode := smallMode()
	ref := poolReference(t, testKs(), mode)
	sw, st, err := s.Sweep(context.Background(), testModel(t), testKs(), mode, dispatch.LargestFirst, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Results {
		sameResult(t, fmt.Sprintf("mode %d", i), sw.Results[i], ref.Results[i])
	}
	if st.LocalModes != len(testKs()) {
		t.Fatalf("expected all %d modes local, got %+v", len(testKs()), st)
	}
}

// silentWorker registers properly and then never answers anything: the
// heartbeat loop must retire it within the miss budget, and its UID's
// return must count as a rejoin.
func TestFarmHeartbeatKillsSilentWorkerAndCountsRejoin(t *testing.T) {
	s := testSupervisor(t, Options{Heartbeat: 20 * time.Millisecond, HeartbeatMisses: 2})
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := binary.Write(c, binary.LittleEndian, uint32(farmMagic)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(&tcpmp.Conn{Conn: c}, kindHello, Hello{Version: protocolVersion, Numerics: core.NumericsVersion, Host: "test", PID: 1, UID: "mute"}); err != nil {
		t.Fatal(err)
	}
	waitAlive(t, s, 1)
	waitAlive(t, s, 0) // heartbeat budget expires, worker retired
	if got := s.Status(); got.HeartbeatKills != 1 {
		t.Fatalf("heartbeat kill not counted: %+v", got)
	}

	startTestWorker(t, s, "mute", 1, nil)
	waitAlive(t, s, 1)
	if got := s.Status(); got.Rejoins != 1 {
		t.Fatalf("rejoin not counted: %+v", got)
	}
}

// Drain lets in-flight work finish, tells every worker to exit cleanly
// (ServeWorker returns nil), and leaves the roster empty.
func TestFarmDrain(t *testing.T) {
	s := testSupervisor(t, Options{MinWorkers: 1})
	w := startTestWorker(t, s, "w", 0, nil)
	waitAlive(t, s, 1)
	if _, _, err := s.Sweep(context.Background(), testModel(t), testKs(), smallMode(), dispatch.LargestFirst, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-w.done:
		if err != nil {
			t.Fatalf("worker exit on drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker did not exit on drain")
	}
	if s.Alive() != 0 {
		t.Fatalf("%d workers alive after drain", s.Alive())
	}
	if _, _, err := s.Sweep(context.Background(), testModel(t), testKs(), smallMode(), dispatch.LargestFirst, false); err == nil {
		t.Fatal("sweep after drain should fail")
	}
}

// Concurrent Sweep calls serialize over the shared fleet and both come
// back bitwise-correct.
func TestFarmConcurrentSweepsSerialize(t *testing.T) {
	s := testSupervisor(t, Options{MinWorkers: 2})
	startTestWorker(t, s, "w1", 0, nil)
	startTestWorker(t, s, "w2", 0, nil)
	waitAlive(t, s, 2)
	mode := smallMode()
	ref := poolReference(t, testKs(), mode)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	sweeps := make([]*dispatch.Sweep, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sweeps[i], _, errs[i] = s.Sweep(context.Background(), testModel(t), testKs(), mode, dispatch.LargestFirst, false)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		for j := range ref.Results {
			sameResult(t, fmt.Sprintf("sweep %d mode %d", i, j), sweeps[i].Results[j], ref.Results[j])
		}
	}
}

// A canceled context aborts the sweep promptly and releases the workers
// back to idle for the next sweep.
func TestFarmSweepContextCancel(t *testing.T) {
	s := testSupervisor(t, Options{MinWorkers: 1})
	startTestWorker(t, s, "w", 0, nil)
	waitAlive(t, s, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Sweep(ctx, testModel(t), testKs(), smallMode(), dispatch.LargestFirst, false); err == nil {
		t.Fatal("expected context error")
	}
	// The fleet must still be usable afterwards.
	sw, _, err := s.Sweep(context.Background(), testModel(t), testKs(), smallMode(), dispatch.LargestFirst, false)
	if err != nil {
		t.Fatal(err)
	}
	ref := poolReference(t, testKs(), smallMode())
	for i := range ref.Results {
		sameResult(t, fmt.Sprintf("mode %d", i), sw.Results[i], ref.Results[i])
	}
}

// Closing an idle fleet waits for the workers' exits, not for a polling
// tick: the median of five Closes of an idle two-worker loopback fleet is
// under 5 ms.
func TestFarmCloseIdleFleetIsPrompt(t *testing.T) {
	took := make([]time.Duration, 5)
	for i := range took {
		s := testSupervisor(t, Options{})
		startTestWorker(t, s, "a", 0, nil)
		startTestWorker(t, s, "b", 0, nil)
		waitAlive(t, s, 2)
		start := time.Now()
		s.Close()
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if took[2] >= 5*time.Millisecond {
		t.Fatalf("Close of an idle two-worker fleet took %v, want a median under 5ms", took)
	}
}

// TestFarmSweepFlattenedMDMMatchesPool runs the farm on a model that is not
// the default one: MDM(4.0), whose Flatten moves OmegaC. The master builds
// it itself and the workers rebuild it from the spec the sweep carries, in
// a cache of their own, so a worker-side construction that differed from
// core.Build would show here as different bits.
func TestFarmSweepFlattenedMDMMatchesPool(t *testing.T) {
	s := testSupervisor(t, Options{MinWorkers: 2})
	models := NewModelCache()
	for _, uid := range []string{"m1", "m2"} {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- ServeWorker(c, WorkerOptions{UID: uid, Models: models, Scratch: core.NewScratch()}) }()
		t.Cleanup(func() { c.Close(); <-done })
	}
	waitAlive(t, s, 2)

	master, err := core.Build(cosmology.MDM(4.0))
	if err != nil {
		t.Fatal(err)
	}
	ks := []float64{0.002, 0.006, 0.01, 0.02}
	mode := smallMode()
	ref, _, err := (&dispatch.Pool{Model: master, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}
	sw, st, err := s.Sweep(context.Background(), master, ks, mode, dispatch.LargestFirst, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Results {
		sameResult(t, fmt.Sprintf("mode %d", i), sw.Results[i], ref.Results[i])
	}
	modes := 0
	for _, w := range st.Workers {
		modes += w.Modes
	}
	if st.NWorkers != 2 || st.WorkerFailures != 0 || modes != len(ks) {
		t.Fatalf("the workers did not evolve every mode: %+v", st)
	}
	replica, err := models.Get(master.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if replica == master || models.Len() != 1 || replica.BG.P.OmegaC != master.BG.P.OmegaC {
		t.Fatalf("workers' replica: Omega_c %v, master's %v", replica.BG.P.OmegaC, master.BG.P.OmegaC)
	}
}

// modeDigest hashes every number of r but its wallclock, floats as their
// 64 bits, as core's TestGoldenModeBits digests a mode.
func modeDigest(r *core.Result) [sha256.Size]byte {
	h := sha256.New()
	put := func(w uint64) { binary.Write(h, binary.LittleEndian, w) }
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type() != reflect.TypeOf(core.Result{}) || v.Type().Field(i).Name != "Seconds" {
					walk(v.Field(i))
				}
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
			put(uint64(v.Len()))
		case reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.Int:
			put(uint64(v.Int()))
		default:
			panic("modeDigest: Result grew a field of kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(r))
	return [sha256.Size]byte(h.Sum(nil))
}

// TestModelCacheBounded: a worker asked for a new cosmology on every sweep
// holds at most workerModels of them, and a spec rebuilt after its eviction
// evolves a mode to the same bits as its first build did.
func TestModelCacheBounded(t *testing.T) {
	spec := func(i int) cosmology.Params {
		p := cosmology.SCDM()
		p.H = 0.5 + 0.01*float64(i)
		p.Flatten = true
		return p
	}
	evolve := func(m *core.Model) [sha256.Size]byte {
		m.EnsureEvalTables(dispatch.ParallelFor)
		r, err := m.Evolve(core.Params{K: 0.03, LMax: 20, Gauge: core.ConformalNewtonian, KeepSources: true, FastEvolve: true})
		if err != nil {
			t.Fatal(err)
		}
		return modeDigest(r)
	}
	c := NewModelCache()
	first, err := c.Get(spec(0))
	if err != nil {
		t.Fatal(err)
	}
	want := evolve(first)
	for i := 1; i < 20; i++ {
		if _, err := c.Get(spec(i)); err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > workerModels {
			t.Fatalf("%d models cached after %d specs, bound %d", n, i+1, workerModels)
		}
	}
	again, err := c.Get(spec(0))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("the first spec was never evicted")
	}
	if evolve(again) != want {
		t.Fatal("a rebuilt model evolves the mode to other bits than its first build")
	}
}
