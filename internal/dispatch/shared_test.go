package dispatch

import (
	"context"
	"sync"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/obs"
)

// TestSharedPoolMatchesPool asserts the long-lived pool reproduces the
// per-run Pool bitwise (the Dispatcher determinism contract), across two
// consecutive sweeps on the same workers.
func TestSharedPoolMatchesPool(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := smallMode()

	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}

	p := NewSharedPool(2)
	defer p.Close()
	for pass := 0; pass < 2; pass++ {
		sw, st, err := p.Sweep(context.Background(), m, ks, mode, false)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if st.Backend != "pool/shared" || st.Modes != len(ks) {
			t.Fatalf("pass %d: bad stats %+v", pass, st)
		}
		for i := range ks {
			sameResult(t, "shared vs pool", sw.Results[i], ref.Results[i])
		}
	}
}

// TestSharedPoolConcurrentRuns interleaves several sweeps on one pool and
// checks each gets its own correct, complete result set.
func TestSharedPoolConcurrentRuns(t *testing.T) {
	m := model(t)
	ks := testKs()
	mode := smallMode()

	ref, _, err := (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}

	p := NewSharedPool(2)
	defer p.Close()
	const runs = 4
	var wg sync.WaitGroup
	errs := make([]error, runs)
	sweeps := make([]*Sweep, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sweeps[r], _, errs[r] = p.Sweep(context.Background(), m, ks, mode, false)
		}(r)
	}
	wg.Wait()
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		for i := range ks {
			sameResult(t, "concurrent shared run", sweeps[r].Results[i], ref.Results[i])
		}
	}
}

// TestSharedPoolServesTwoModels runs sweeps of SCDM and of a second
// cosmology concurrently on one pool: the worker arenas carry nothing from
// one model to the other, so each result is bitwise the model's own Pool
// run.
func TestSharedPoolServesTwoModels(t *testing.T) {
	cfg := cosmology.SCDM()
	cfg.H = 0.6
	cfg.Flatten = true
	other, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := []*core.Model{model(t), other}
	ks := testKs()
	mode := smallMode()
	refs := make([]*Sweep, len(models))
	for i, m := range models {
		if refs[i], _, err = (&Pool{Model: m, Workers: 2}).Run(context.Background(), ks, mode); err != nil {
			t.Fatal(err)
		}
	}
	if refs[0].Results[0].DeltaC == refs[1].Results[0].DeltaC {
		t.Fatal("the two cosmologies give the same mode; the test cannot tell them apart")
	}

	p := NewSharedPool(2)
	defer p.Close()
	const passes = 3
	var wg sync.WaitGroup
	errs := make([]error, passes*len(models))
	sweeps := make([]*Sweep, passes*len(models))
	for r := range sweeps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sweeps[r], _, errs[r] = p.Sweep(context.Background(), models[r%len(models)], ks, mode, false)
		}(r)
	}
	wg.Wait()
	for r := range sweeps {
		if errs[r] != nil {
			t.Fatalf("sweep %d: %v", r, errs[r])
		}
		for i := range ks {
			sameResult(t, "two-model shared sweep", sweeps[r].Results[i], refs[r%len(models)].Results[i])
		}
	}
}

// TestSharedPoolCloseWaitsForSweeps closes the pool while a sweep is in
// flight: Close returns only once that sweep has finished, and the sweep
// completes bitwise equal to the reference instead of failing.
func TestSharedPoolCloseWaitsForSweeps(t *testing.T) {
	m := model(t)
	ks := make([]float64, 32)
	for i := range ks {
		ks[i] = 0.002 + 0.0025*float64(i)
	}
	mode := smallMode()
	ref, _, err := (&Pool{Model: m, Workers: 1}).Run(context.Background(), ks, mode)
	if err != nil {
		t.Fatal(err)
	}

	p := NewSharedPool(1)
	tr := obs.NewTrace("close")
	type outcome struct {
		sw  *Sweep
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		sw, _, err := p.Sweep(obs.ContextWithTrace(context.Background(), tr), m, ks, mode, false)
		done <- outcome{sw, err}
	}()
	// The eval_tables span ends once the sweep is admitted and about to
	// hand out its modes.
	deadline := time.Now().Add(10 * time.Second)
	for len(tr.Snapshot().Spans) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(50 * time.Microsecond)
	}
	p.Close()
	var out outcome
	select {
	case out = <-done:
	default:
		t.Fatal("Close returned before the sweep in flight finished")
	}
	if out.err != nil {
		t.Fatalf("sweep in flight during Close: %v", out.err)
	}
	for i := range ks {
		sameResult(t, "sweep across Close", out.sw.Results[i], ref.Results[i])
	}
	if _, _, err := p.Sweep(context.Background(), m, ks, mode, false); err == nil {
		t.Fatal("Sweep after Close succeeded")
	}
}

func TestSharedPoolClose(t *testing.T) {
	m := model(t)
	p := NewSharedPool(1)
	p.Close()
	p.Close() // idempotent
	if _, _, err := p.Sweep(context.Background(), m, testKs(), smallMode(), false); err == nil {
		t.Fatal("Sweep on a closed pool succeeded")
	}
}

func TestSharedPoolPropagatesErrors(t *testing.T) {
	m := model(t)
	p := NewSharedPool(2)
	defer p.Close()
	ks := []float64{0.01, -1.0, 0.02} // negative k fails validation in Evolve
	if _, _, err := p.Sweep(context.Background(), m, ks, smallMode(), false); err == nil {
		t.Fatal("bad wavenumber did not fail the run")
	}
	// The pool must still be usable afterwards.
	if _, _, err := p.Sweep(context.Background(), m, testKs(), smallMode(), false); err != nil {
		t.Fatalf("pool unusable after failed run: %v", err)
	}
}
