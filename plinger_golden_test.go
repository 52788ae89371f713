package plinger

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"
)

// updateGolden rewrites testdata/golden_cl_bits.json from the code under
// test (make golden); rerun with the flag only when a change is *meant* to
// move the spectrum. The rewrite prints, per case, the largest relative
// shift old -> new and the l it occurs at, and refuses a shift above
// goldenMaxShift unless updateGoldenForce is given too, so the bits are
// never re-recorded blind.
var (
	updateGolden      = flag.Bool("update-golden", false, "rewrite testdata/golden_cl_bits.json")
	updateGoldenForce = flag.Bool("update-golden-force", false, "with -update-golden: accept a relative shift above 1e-4")
)

const (
	goldenClPath   = "testdata/golden_cl_bits.json"
	goldenMaxShift = 1e-4

	// hierarchyClPath is golden_cl_bits.json as the engine writes it while
	// tracking the shrunk 6-moment hierarchies to the present: first the
	// file as it stood before the radiation-streaming switch (commit
	// 72c7ed3), and make golden never touches it. A change that moves the
	// stepping both engines share before the switch (the slip regime did,
	// by 3.9e-5 and 6.7e-5) would be booked to the switch, so the file is
	// then re-frozen once, on the final code: in a scratch copy put
	// `p.noStream = true` first in core's Params.setDefaults, run
	//
	//	go test -short -run '^TestGoldenClBits$' -update-golden -update-golden-force .
	//
	// there, and copy the two goldenCases() entries of its
	// testdata/golden_cl_bits.json over. Last re-frozen on commit 7a974f4.
	hierarchyClPath = "testdata/golden_cl_bits_hierarchy.json"
	// streamClBudget bounds what the switch may move C_l by at any l
	// (measured: 2.5e-7 and 8.0e-7 on the two cases; the engine's own budget
	// is 1e-3).
	streamClBudget = 1e-5
)

// goldenFast is a fast-engine request for every multipole to lmaxCl (so
// LSpline engages) with the daemon's switch set.
func goldenFast(lmaxCl, nk int) SpectrumOptions {
	return SpectrumOptions{
		LMaxCl: lmaxCl, NK: nk, Ls: everyL(lmaxCl),
		FastLOS: true, FastEvolve: true, KRefine: 6, LSpline: true, KBatch: 4,
	}
}

// everyL lists the multipoles 2..lmaxCl.
func everyL(lmaxCl int) []int {
	ls := make([]int, 0, lmaxCl-1)
	for l := 2; l <= lmaxCl; l++ {
		ls = append(ls, l)
	}
	return ls
}

// goldenCases are the fast-engine requests whose C_l bits are pinned and
// held to the hierarchy reference: the stock 150/130 product and the
// LMaxCl 300 product at its default NK.
func goldenCases() map[string]SpectrumOptions {
	return map[string]SpectrumOptions{
		"scdm_fast_150_130_dense": goldenFast(150, 130),
		"scdm_fast_300_dense":     goldenFast(300, 0),
	}
}

// goldenPaperCase is the paper-scale request (the benchmark's sweep_paper),
// pinned outside -short: four fifths of its quadrature points sit on the
// Bessel table's nodes, where the 150/130 product has none.
const goldenPaperCase = "scdm_fast_1000_1200_dense"

// goldenBruteCase is the paper's LINGER read-off (the benchmark's
// sweep_brute): the synchronous-gauge 450-moment hierarchies integrated to
// the present, no fast switch anywhere. It pins the integrator itself, and
// stays out of goldenCases because the hierarchy reference has no such case.
const goldenBruteCase = "scdm_brute_60_60"

// goldenMDMCase is the companion paper's CDM+HDM model, MDM(4), at the stock
// 150/130 request: the one pinned model with a massive neutrino. It stays
// out of goldenCases because the hierarchy reference has no such case.
const goldenMDMCase = "mdm4_fast_150_130_dense"

// goldenCase is one pinned request and the model it runs on.
type goldenCase struct {
	m *Model
	o SpectrumOptions
}

func clBits(cl []float64) []string {
	out := make([]string, len(cl))
	for i, v := range cl {
		out[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}

// readClBits loads a recorded bits file as C_l values per case.
func readClBits(t *testing.T, path string) map[string][]float64 {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bits map[string][]string
	if err := json.Unmarshal(buf, &bits); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	out := make(map[string][]float64, len(bits))
	for name, hex := range bits {
		cl := make([]float64, len(hex))
		for i, h := range hex {
			u, err := strconv.ParseUint(h, 16, 64)
			if err != nil {
				t.Fatalf("%s: %s[%d]: %v", path, name, i, err)
			}
			cl[i] = math.Float64frombits(u)
		}
		out[name] = cl
	}
	return out
}

// maxRelShift returns the largest |b/a - 1| over the multipoles and the
// index it occurs at.
func maxRelShift(a, b []float64) (shift float64, at int) {
	for i := range a {
		if d := math.Abs(b[i]/a[i] - 1); d > shift {
			shift, at = d, i
		}
	}
	return shift, at
}

// TestHostExpPath checks that this host takes the math.Exp path the golden
// files were recorded with. The compiler never fuses x*y + z on amd64, but
// Go's amd64 math.Exp chooses at run time: with AVX and FMA it runs a
// VFMADD213SD path, without them a multiply-and-add one, and the two differ
// in the last bit of about one result in eleven on [-60, 0]. Recombination,
// the evolution and the line-of-sight projection all call math.Exp, so
// every golden digest — this package's C_l bits, core's mode bits, thermo's
// history — follows the path. The golden files were recorded on an FMA
// host; the probe's two answers are 0x3a991c082cdbe7fb (FMA) and
// 0x3a991c082cdbe7fa (GODEBUG=cpu.fma=off, or a CPU without FMA).
func TestHostExpPath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64; other targets may fuse multiply-adds")
	}
	const probe, fmaBits = -59.16, 0x3a991c082cdbe7fb
	if got := math.Float64bits(math.Exp(probe)); got != fmaBits {
		t.Fatalf("math.Exp(%v) = %#016x, but the golden files were recorded where it is %#016x (the FMA path): "+
			"this host's math.Exp path differs, so every golden digest will differ too", probe, got, uint64(fmaBits))
	}
}

// TestGoldenClBits: the fast engine's C_l is the same 64 bits per multipole
// as the recorded answer (make golden) at every worker count and with a
// single processor — the fused refine+project stage is parallel over fine
// wavenumbers, and neither its schedule nor the four-row Bessel walk may
// reorder a single addition.
func TestGoldenClBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64; other targets may fuse multiply-adds")
	}
	scdm := scdmModel(t)
	mdm, err := New(MDM(4))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]goldenCase{
		goldenBruteCase: {scdm, SpectrumOptions{LMaxCl: 60, NK: 60, Ls: everyL(60), Method: "brute"}},
		goldenMDMCase:   {mdm, goldenFast(150, 130)},
	}
	for name, o := range goldenCases() {
		cases[name] = goldenCase{scdm, o}
	}
	if !testing.Short() || *updateGolden {
		cases[goldenPaperCase] = goldenCase{scdm, goldenFast(1000, 1200)}
	}
	if *updateGolden {
		old := readClBits(t, goldenClPath)
		golden := map[string][]string{}
		for name, c := range cases {
			sp, err := c.m.ComputeSpectrum(c.o)
			if err != nil {
				t.Fatal(err)
			}
			golden[name] = clBits(sp.Cl)
			if len(old[name]) != len(sp.Cl) {
				t.Logf("%s: %d multipoles (recorded: %d), nothing to compare", name, len(sp.Cl), len(old[name]))
				continue
			}
			shift, at := maxRelShift(old[name], sp.Cl)
			t.Logf("%s: largest relative shift old -> new %.3g at l=%d", name, shift, sp.L[at])
			if shift > goldenMaxShift && !*updateGoldenForce {
				t.Errorf("%s: shift %.3g at l=%d is above %g; pass -update-golden-force if it is meant", name, shift, sp.L[at], goldenMaxShift)
			}
		}
		if t.Failed() {
			t.Fatalf("%s left as it was", goldenClPath)
		}
		buf, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenClPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readClBits(t, goldenClPath)
	check := func(t *testing.T, name string, m *Model, o SpectrumOptions) {
		t.Helper()
		sp, err := m.ComputeSpectrum(o)
		if err != nil {
			t.Fatal(err)
		}
		want, got := golden[name], sp.Cl
		if len(want) != len(got) {
			t.Fatalf("%s: %d multipoles, golden file has %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s: C_l bits differ at l=%d: got %x, golden %x", name, sp.L[i],
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for name, c := range cases {
		o := c.o
		for _, workers := range []int{1, 2, 4} {
			o.Workers = workers
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) { check(t, name, c.m, o) })
		}
		t.Run(name+"/gomaxprocs1", func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			o.Workers = 0
			check(t, name, c.m, o)
		})
	}
}

// TestStreamingClWithinHierarchyReference: dropping the free-streaming
// radiation from the late evolution (core's streaming switch) keeps every
// multipole of both recorded cases within streamClBudget of the spectrum
// the engine produced while it still tracked the hierarchies to the
// present — the frozen no-switch bits (see hierarchyClPath), which no
// re-recording of golden_cl_bits.json touches.
func TestStreamingClWithinHierarchyReference(t *testing.T) {
	ref := readClBits(t, hierarchyClPath)
	m := scdmModel(t)
	for name, o := range goldenCases() {
		sp, err := m.ComputeSpectrum(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref[name]) != len(sp.Cl) {
			t.Fatalf("%s: %d multipoles, hierarchy reference has %d", name, len(sp.Cl), len(ref[name]))
		}
		shift, at := maxRelShift(ref[name], sp.Cl)
		t.Logf("%s: largest relative shift from the hierarchy reference %.3g at l=%d", name, shift, sp.L[at])
		if shift > streamClBudget {
			t.Errorf("%s: C_l is %.3g from the hierarchy reference at l=%d, budget %g", name, shift, sp.L[at], streamClBudget)
		}
	}
}

// TestFastSpectrumAllocBytes: one stock fast-engine ComputeSpectrum
// allocates ~12.5 MB — the coarse sweep's recorded sources, the refinement
// plan and the answer. The budget leaves a quarter of headroom and is one
// that materialising the refined sweep (130 modes x ~700 samples x 152 B,
// 9 MB and more) would break, as would scratch that reallocates per mode.
func TestFastSpectrumAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch sets at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // bounds the per-worker scratch sets
	m := scdmModel(t)
	o := goldenCases()["scdm_fast_150_130_dense"]
	o.Workers = 2
	if _, err := m.ComputeSpectrum(o); err != nil { // warm tables and scratch pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := m.ComputeSpectrum(o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("fast 150/130 ComputeSpectrum allocated %d bytes, budget %d", got, budget)
	}
}
