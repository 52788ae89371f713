package plinger

// Facade routing over the worker farm: Attach(fleet) must send every
// default-transport sweep across the fleet and produce spectra bitwise
// equal to the in-process pool's; Attach(nil) must revert. And a farm
// sweep's unit records are those of every in-process transport.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/dispatch"
	"plinger/internal/farm"
)

// twoWorkerFleet starts a farm supervisor with two in-process workers
// registered on it.
func twoWorkerFleet(t *testing.T) *farm.Supervisor {
	t.Helper()
	fleet, err := farm.New(farm.Options{
		MinWorkers:  2,
		WaitWorkers: 10 * time.Second,
		Heartbeat:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	models := farm.NewModelCache()
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", fleet.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
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
	return fleet
}

func TestAttachFarmRoutesSweepsBitwise(t *testing.T) {
	fleet := twoWorkerFleet(t)

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

// TestUnitRecordsAgreeAcrossExecutors: the unit_1 and unit_2 records that
// RunParallel writes over chan, fifo and tcp, and those cmd/plinger writes
// after a farm sweep, hold the wavenumbers in grid order (ik = 1, 2, ...)
// and agree in every value but each mode's CPU seconds.
func TestUnitRecordsAgreeAcrossExecutors(t *testing.T) {
	m := scdmModel(t)
	ks := []float64{0.01, 0.03, 0.05, 0.02, 0.004}
	runs := map[string][]string{}
	for _, transport := range []string{"chan", "fifo", "tcp"} {
		var ascii, bin bytes.Buffer
		if _, err := m.RunParallel(ParallelOptions{KValues: ks, Workers: 2, LMax: 10, Transport: transport,
			ASCIIOut: &ascii, BinaryOut: &bin}); err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		runs[transport] = unitRecords(t, transport, ascii.Bytes(), bin.Bytes())
	}
	mode, err := ModeOptions{K: ks[0], LMax: 10}.internal()
	if err != nil {
		t.Fatal(err)
	}
	sw, _, err := twoWorkerFleet(t).Sweep(context.Background(), m.core, ks, mode, false)
	if err != nil {
		t.Fatal(err)
	}
	var ascii, bin bytes.Buffer
	if err := dispatch.WriteRecords(&ascii, &bin, sw); err != nil {
		t.Fatal(err)
	}
	runs["farm"] = unitRecords(t, "farm", ascii.Bytes(), bin.Bytes())
	for name, recs := range runs {
		if len(recs) != len(ks) || !reflect.DeepEqual(recs, runs["chan"]) {
			t.Fatalf("%s records differ from chan's:\n%q\n%q", name, recs, runs["chan"])
		}
	}
}

// unitRecords reads one run's unit_1 lines and unit_2 records, checks that
// record i is for ik = i+1 in both, and returns each mode's pair with its
// CPU seconds blanked (ASCII field 17, moments slot 6): timing, not physics.
func unitRecords(t *testing.T, name string, ascii, bin []byte) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(ascii)), "\n")
	r := bytes.NewReader(bin)
	out := make([]string, len(lines))
	for i, ln := range lines {
		f := strings.Fields(ln)
		if len(f) != 20 {
			t.Fatalf("%s: unit_1 record %d has %d fields, want 20", name, i, len(f))
		}
		var n int64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil || n < 8 || n > 1<<16 {
			t.Fatalf("%s: unit_2 record %d: length %d, %v", name, i, n, err)
		}
		mom := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, mom); err != nil {
			t.Fatal(err)
		}
		if ik, err := strconv.ParseFloat(f[0], 64); err != nil || ik != float64(i+1) || mom[0] != float64(i+1) {
			t.Fatalf("%s: record %d is %q with moments for ik %g, want ik %d", name, i, ln, mom[0], i+1)
		}
		f[16], mom[6] = "", 0
		out[i] = fmt.Sprint(f, mom)
	}
	if r.Len() != 0 {
		t.Fatalf("%s: %d bytes of unit_2 after %d records", name, r.Len(), len(lines))
	}
	return out
}
