package dispatch

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"plinger/internal/core"
)

// TestPoolIsASharedPoolForOneRun: Pool.Run and a SharedPool the caller
// keeps return the same bits and book the same modes on the same (ks,
// mode), at every worker count, block size and cutoff policy; only the
// backend label tells them apart.
func TestPoolIsASharedPoolForOneRun(t *testing.T) {
	m := model(t)
	ks := testKs()
	for _, workers := range []int{1, 2, 4} {
		for _, kbatch := range []int{0, 1, 4} {
			for _, adapt := range []bool{false, true} {
				label := fmt.Sprintf("workers=%d kbatch=%d adapt=%v", workers, kbatch, adapt)
				mode := core.Params{LMax: 30, Gauge: core.ConformalNewtonian, TauEnd: 300,
					KeepSources: true, FastEvolve: true, KBatch: kbatch}
				a, ast, err := (&Pool{Model: m, Workers: workers, AdaptLMax: adapt}).Run(context.Background(), ks, mode)
				if err != nil {
					t.Fatalf("%s: pool: %v", label, err)
				}
				sp := NewSharedPool(workers)
				b, bst, err := sp.Sweep(context.Background(), m, ks, mode, adapt)
				sp.Close()
				if err != nil {
					t.Fatalf("%s: shared pool: %v", label, err)
				}
				for i := range ks {
					a.Results[i].Seconds, b.Results[i].Seconds = 0, 0
				}
				if !reflect.DeepEqual(a.Results, b.Results) {
					t.Errorf("%s: Pool and SharedPool results differ", label)
				}
				if ast.Modes != len(ks) || bst.Modes != len(ks) {
					t.Errorf("%s: %d and %d modes booked, want %d", label, ast.Modes, bst.Modes, len(ks))
				}
				if ast.Backend != "pool" || bst.Backend != "pool/shared" {
					t.Errorf("%s: backend labels %q and %q", label, ast.Backend, bst.Backend)
				}
			}
		}
	}
}

// TestPoolStopsItsWorkers: the pool Pool.Run starts is closed on every way
// out — a finished sweep, a cancelled context, a panicking mode — and the
// two failures still name what failed.
func TestPoolStopsItsWorkers(t *testing.T) {
	m := model(t)
	base := runtime.NumGoroutine()
	settled := func(label string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the run", label, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if _, _, err := (&Pool{Model: m, Workers: 4}).Run(context.Background(), testKs(), smallMode()); err != nil {
		t.Fatal(err)
	}
	settled("finished sweep")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (&Pool{Model: m, Workers: 4}).Run(ctx, testKs(), smallMode()); err != context.Canceled {
		t.Fatalf("cancelled context: %v", err)
	}
	settled("cancelled context")

	broken := core.NewModel(nil, nil) // every evolution panics on the nil background
	_, _, err := (&Pool{Model: broken, Workers: 2}).Run(context.Background(), testKs()[:3], smallMode())
	if err == nil || !regexp.MustCompile(`pool worker [12] panicked on mode index [0-2]:`).MatchString(err.Error()) {
		t.Fatalf("panicking mode: error %v does not name the worker rank and grid index", err)
	}
	settled("panicking mode")
}
