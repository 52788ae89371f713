package plinger

// Facade routing over the worker farm: Attach(fleet) must send every
// default-transport sweep across the fleet and produce spectra bitwise
// equal to the in-process pool's; Attach(nil) must revert.

import (
	"net"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/farm"
)

func TestAttachFarmRoutesSweepsBitwise(t *testing.T) {
	fleet, err := farm.New(farm.Options{
		MinWorkers:  2,
		WaitWorkers: 10 * time.Second,
		Heartbeat:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	models := farm.NewModelCache()
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", fleet.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go func() {
			_ = farm.ServeWorker(conn, farm.WorkerOptions{Models: models, Scratch: core.NewScratch()})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for fleet.Alive() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fleet.Alive() < 2 {
		t.Fatalf("only %d workers joined", fleet.Alive())
	}

	// A private model: Attach mutates routing state, and scdmModel's
	// instance is shared across the package's tests.
	m, err := New(SCDM())
	if err != nil {
		t.Fatal(err)
	}
	opts := SpectrumOptions{LMaxCl: 12, NK: 24, Ls: []int{2, 4, 8, 12}}
	ref, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}

	m.Attach(fleet)
	got, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatalf("farm-routed spectrum: %v", err)
	}
	for i := range ref.Cl {
		if got.Cl[i] != ref.Cl[i] {
			t.Fatalf("C_%d = %g over the farm, %g over the pool", ref.L[i], got.Cl[i], ref.Cl[i])
		}
	}
	if st := fleet.Status(); st.Sweeps < 1 {
		t.Fatalf("farm saw no sweeps: %+v", st)
	}
	// The fast engine (adaptive lmax, batched evolution) routes through the
	// farm natively too.
	fast, err := m.ComputeSpectrum(SpectrumOptions{LMaxCl: 12, NK: 24, Ls: []int{2, 4, 8, 12},
		FastLOS: true, FastEvolve: true, KBatch: 3})
	if err != nil {
		t.Fatalf("farm-routed fast spectrum: %v", err)
	}
	if len(fast.Cl) != len(ref.Cl) {
		t.Fatal("fast spectrum truncated")
	}

	m.Attach(nil)
	sweepsBefore := fleet.Status().Sweeps
	back, err := m.ComputeSpectrum(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Cl {
		if back.Cl[i] != ref.Cl[i] {
			t.Fatal("post-disable spectrum differs")
		}
	}
	if fleet.Status().Sweeps != sweepsBefore {
		t.Fatal("Attach(nil) left sweeps routing over the fleet")
	}
}
