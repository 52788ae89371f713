package serve

// Service-over-farm integration: the daemon's serving layer computing its
// spectra across out-of-process workers must answer exactly what the
// in-process pool answers, and /v1/stats must carry the fleet roster.

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/farm"
)

// testFarm starts a supervisor under opt with n in-process workers serving
// on goroutines (no child processes: this pins the serve wiring, not the
// process supervision, which internal/farm's chaos suite covers). wrap,
// when set, stands between worker i and its connection.
func testFarm(t *testing.T, n int, opt farm.Options, wrap func(i int, c net.Conn) net.Conn) *farm.Supervisor {
	t.Helper()
	f, err := farm.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	models := farm.NewModelCache()
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", f.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if wrap != nil {
			conn = wrap(i, conn)
		}
		go func() {
			_ = farm.ServeWorker(conn, farm.WorkerOptions{Models: models, Scratch: core.NewScratch()})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Alive() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f.Alive() < n {
		t.Fatalf("only %d of %d workers joined", f.Alive(), n)
	}
	return f
}

func TestServiceOverFarmMatchesPool(t *testing.T) {
	fleet := testFarm(t, 2, farm.Options{MinWorkers: 2, Heartbeat: 100 * time.Millisecond}, nil)
	overFarm := New(Options{Defaults: testDefaults(), Workers: 1, Farm: fleet})
	defer overFarm.Close()
	overPool := testService()
	defer overPool.Close()
	ctx := context.Background()

	for _, req := range []ClRequest{{}, {LMaxCl: 30, QCOBEMicroK: 18}} {
		got, _, err := overFarm.ComputeCl(ctx, req)
		if err != nil {
			t.Fatalf("farm compute %+v: %v", req, err)
		}
		want, _, err := overPool.ComputeCl(ctx, req)
		if err != nil {
			t.Fatalf("pool compute %+v: %v", req, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("farm and pool responses differ for %+v", req)
		}
	}
	pkGot, _, err := overFarm.ComputePk(ctx, PkRequest{})
	if err != nil {
		t.Fatal(err)
	}
	pkWant, _, err := overPool.ComputePk(ctx, PkRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pkGot, pkWant) {
		t.Fatal("farm and pool P(k) responses differ")
	}

	st := overFarm.Stats()
	if st.Farm == nil {
		t.Fatal("farm-backed service exposes no farm stats")
	}
	if st.Farm.Alive != 2 || st.Farm.Sweeps < 1 {
		t.Fatalf("farm stats: %+v", st.Farm)
	}
	var modes int64
	for _, w := range st.Farm.Workers {
		modes += w.Modes
	}
	if modes < 1 {
		t.Fatalf("per-host stats recorded no modes: %+v", st.Farm.Workers)
	}
	if poolStats := overPool.Stats(); poolStats.Farm != nil {
		t.Fatal("pool-backed service must not expose farm stats")
	}
}
