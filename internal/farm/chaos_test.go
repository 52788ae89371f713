package farm

// Process-level chaos: these tests spawn real plingerw worker processes
// under the supervisor and kill them — mid-sweep and between sweeps —
// while asserting every sweep stays bitwise-identical to the in-process
// pool and the fleet heals back to its configured size on its own.

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/dispatch"
)

// workerBin is the plingerw binary TestMain builds once for the package.
var workerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "plingerw-chaos")
	if err == nil {
		bin := filepath.Join(dir, "plingerw")
		cmd := exec.Command("go", "build", "-o", bin, "plinger/cmd/plingerw")
		if out, err := cmd.CombinedOutput(); err == nil {
			workerBin = bin
		} else {
			fmt.Fprintf(os.Stderr, "chaos: cannot build plingerw (tests will skip): %v\n%s\n", err, out)
		}
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func chaosSupervisor(t *testing.T, workers int) *Supervisor {
	t.Helper()
	if workerBin == "" {
		t.Skip("plingerw binary unavailable")
	}
	s, err := New(Options{
		Workers:         workers,
		WorkerBin:       workerBin,
		workerArgs:      []string{"-quiet"},
		Heartbeat:       100 * time.Millisecond,
		heartbeatMisses: 5,
		assignDeadline:  3 * time.Second,
		MinWorkers:      workers,
		WaitWorkers:     15 * time.Second,
		restartMax:      20,
		restartWindow:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// chaosKs is a grid long enough that a sweep takes real wall time, so a
// kill launched alongside it lands mid-sweep.
func chaosKs() []float64 {
	ks := make([]float64, 24)
	for i := range ks {
		ks[i] = 0.002 * math.Pow(0.12/0.002, float64(i)/float64(len(ks)-1))
	}
	return ks
}

// killWorkerPID SIGKILLs one registered worker process not yet in
// exclude, returning its PID (0 if none could be found in time). Safe to
// call off the test goroutine.
func killWorkerPID(s *Supervisor, exclude map[int]bool) int {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range s.Status().Workers {
			if w.PID > 0 && !exclude[w.PID] {
				if err := syscall.Kill(w.PID, syscall.SIGKILL); err == nil {
					return w.PID
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0
}

// TestChaosKillMidSweepAndBetweenSweeps is the PR's acceptance scenario:
// under sustained sweep load, one plingerw is SIGKILLed mid-sweep and
// another between sweeps. Every sweep's spectra stay bitwise-correct, the
// killed workers are restarted and rejoin, and the roster returns to the
// configured size without operator action.
func TestChaosKillMidSweepAndBetweenSweeps(t *testing.T) {
	const fleet = 3
	s := chaosSupervisor(t, fleet)
	waitAlive(t, s, fleet)

	ks := chaosKs()
	mode := smallMode()
	ref := poolReference(t, ks, mode)
	check := func(label string, sw *dispatch.Sweep) {
		t.Helper()
		for i := range ref.Results {
			sameResult(t, fmt.Sprintf("%s mode %d", label, i), sw.Results[i], ref.Results[i])
		}
	}
	runSweep := func(label string) *dispatch.Sweep {
		t.Helper()
		sw, _, err := s.Sweep(context.Background(), testModel(t), ks, mode, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return sw
	}

	killed := map[int]bool{}

	// Sustained load: sweep 0 is calm, sweep 1 loses a worker mid-flight,
	// sweep 2 follows a between-sweeps kill, sweeps 3-4 ride the healed
	// fleet.
	check("calm", runSweep("calm"))

	midKill := make(chan int, 1)
	go func() {
		time.Sleep(5 * time.Millisecond) // let the sweep start handing out work
		midKill <- killWorkerPID(s, killed)
	}()
	check("mid-sweep kill", runSweep("mid-sweep kill"))
	if pid := <-midKill; pid != 0 {
		killed[pid] = true
	} else {
		t.Fatal("mid-sweep kill found no worker process")
	}

	if pid := killWorkerPID(s, killed); pid != 0 { // between sweeps
		killed[pid] = true
	} else {
		t.Fatal("between-sweeps kill found no worker process")
	}
	check("after between-sweeps kill", runSweep("after between-sweeps kill"))

	check("steady 1", runSweep("steady 1"))
	check("steady 2", runSweep("steady 2"))

	// Self-healing: the monitor restarts the killed processes, they dial
	// back in, and the roster recovers to the configured level.
	waitAlive(t, s, fleet)
	st := s.Status()
	if st.Restarts < 2 {
		t.Fatalf("expected >=2 supervised restarts, got %+v", st)
	}
	if st.Alive != fleet {
		t.Fatalf("fleet did not heal: %+v", st)
	}
}

// TestChaosKillAtDefaultBudgetReportsDeath: under the default 30 s silence
// budget, one of two plingerw processes is SIGKILLed mid-sweep. Its dropped
// connection reports the death to the master at once, so the sweep ends
// within 10 s — the budget never ran out — bitwise equal to the pool's.
func TestChaosKillAtDefaultBudgetReportsDeath(t *testing.T) {
	if workerBin == "" {
		t.Skip("plingerw binary unavailable")
	}
	s, err := New(Options{
		Workers:     2,
		WorkerBin:   workerBin,
		workerArgs:  []string{"-quiet"},
		MinWorkers:  2,
		WaitWorkers: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	waitAlive(t, s, 2)
	ks := chaosKs()
	mode := core.Params{LMax: 40, Gauge: core.Synchronous}
	ref := poolReference(t, ks, mode)

	killed := make(chan int, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, w := range s.Status().Workers {
				if w.State == "sweeping" && syscall.Kill(w.PID, syscall.SIGKILL) == nil {
					killed <- w.PID
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		killed <- 0
	}()
	start := time.Now()
	sw, st, err := s.Sweep(context.Background(), testModel(t), ks, mode, false)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if pid := <-killed; pid == 0 {
		t.Fatal("no sweeping worker process to kill")
	}
	if st.WorkerFailures != 1 || st.DeadlineMisses != 0 {
		t.Fatalf("WorkerFailures %d, DeadlineMisses %d; want the one kill, reported by its connection", st.WorkerFailures, st.DeadlineMisses)
	}
	if took > 10*time.Second {
		t.Fatalf("sweep took %v: the kill waited out the silence budget", took)
	}
	for i := range ref.Results {
		sameResult(t, fmt.Sprintf("mode %d", i), sw.Results[i], ref.Results[i])
	}
}

// TestChaosSpawnedFleetDrain verifies a spawned fleet exits cleanly on
// Drain: processes leave on the drain order, none are force-killed into
// restart loops, and the restart budget is untouched.
func TestChaosSpawnedFleetDrain(t *testing.T) {
	s := chaosSupervisor(t, 2)
	waitAlive(t, s, 2)
	if _, _, err := s.Sweep(context.Background(), testModel(t), testKs(), smallMode(), false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Status(); got.Alive != 0 || got.Restarts != 0 {
		t.Fatalf("drain left the fleet dirty: %+v", got)
	}
}

// TestChaosRestartBudgetDeniesCrashLoop pins the rate limit: a fleet
// whose binary dies instantly burns its restart budget and then stays
// down instead of forking forever.
func TestChaosRestartBudgetDeniesCrashLoop(t *testing.T) {
	if workerBin == "" {
		t.Skip("plingerw binary unavailable")
	}
	s, err := New(Options{
		Workers:       1,
		WorkerBin:     workerBin,
		workerArgs:    []string{"-quiet"},
		restartMax:    2,
		restartWindow: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Keep SIGKILLing whatever worker registers: the first two deaths are
	// restarted under the budget, the third is denied and the fleet stays
	// down — forking forever is the failure mode this rate limit exists for.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Status()
		if st.RestartsDenied >= 1 {
			if st.Restarts != 2 {
				t.Fatalf("budget allowed %d restarts, want 2: %+v", st.Restarts, st)
			}
			return
		}
		for _, w := range st.Workers {
			if w.PID > 0 {
				_ = syscall.Kill(w.PID, syscall.SIGKILL)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("restart budget never hit denial")
}
