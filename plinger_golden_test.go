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
// test. The checked-in file was recorded on the commit before the fused
// coarse-sources-to-Theta_l stage (91aca42), so the test proves the fusion
// changed no bit; rerun with the flag only when a change is *meant* to move
// the spectrum.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cl_bits.json")

const goldenClPath = "testdata/golden_cl_bits.json"

// goldenCases are the fast-engine requests whose C_l bits are pinned: the
// stock 150/130 product and the LMaxCl 300 product at its default NK, every
// multipole requested (so LSpline engages), with the daemon's switch set.
func goldenCases() map[string]SpectrumOptions {
	dense := func(lmaxCl int) []int {
		ls := make([]int, 0, lmaxCl-1)
		for l := 2; l <= lmaxCl; l++ {
			ls = append(ls, l)
		}
		return ls
	}
	fast := func(lmaxCl, nk int) SpectrumOptions {
		return SpectrumOptions{
			LMaxCl: lmaxCl, NK: nk, Ls: dense(lmaxCl),
			FastLOS: true, FastEvolve: true, KRefine: 6, LSpline: true, KBatch: 4,
		}
	}
	return map[string]SpectrumOptions{
		"scdm_fast_150_130_dense": fast(150, 130),
		"scdm_fast_300_dense":     fast(300, 0),
	}
}

func clBits(cl []float64) []string {
	out := make([]string, len(cl))
	for i, v := range cl {
		out[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}

// TestGoldenClBits: the fast engine's C_l is the same 64 bits per multipole
// as the recorded parent-commit answer at every worker count and with a
// single processor — the fused refine+project stage is parallel over fine
// wavenumbers, and neither its schedule nor the four-row Bessel walk may
// reorder a single addition.
func TestGoldenClBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64; other targets may fuse multiply-adds")
	}
	m := scdmModel(t)
	cases := goldenCases()
	if *updateGolden {
		golden := map[string][]string{}
		for name, o := range cases {
			sp, err := m.ComputeSpectrum(o)
			if err != nil {
				t.Fatal(err)
			}
			golden[name] = clBits(sp.Cl)
		}
		buf, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenClPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenClPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, name string, o SpectrumOptions) {
		t.Helper()
		sp, err := m.ComputeSpectrum(o)
		if err != nil {
			t.Fatal(err)
		}
		want, got := golden[name], clBits(sp.Cl)
		if len(want) != len(got) {
			t.Fatalf("%s: %d multipoles, golden file has %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: C_l bits differ at l=%d: got %s, golden %s", name, sp.L[i], got[i], want[i])
			}
		}
	}
	for name, o := range cases {
		for _, workers := range []int{1, 2, 4} {
			o.Workers = workers
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) { check(t, name, o) })
		}
		t.Run(name+"/gomaxprocs1", func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			o.Workers = 0
			check(t, name, o)
		})
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
