package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"plinger/internal/cosmology"
	"plinger/internal/ode"
	"plinger/internal/recomb"
	"plinger/internal/thermo"
)

// updateGolden rewrites testdata/golden_mode_bits.json from the code under
// test, the root package's convention; pass it only for a change that is
// meant to move a trajectory.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_mode_bits.json")

const goldenModePath = "testdata/golden_mode_bits.json"

// hashBits feeds every number under v to h: floats as their 64 bits, so a
// change in the last place of any moment, sample or time changes the digest.
// seconds is left out at the top level: the wallclock is telemetry.
func hashBits(h hash.Hash, v reflect.Value) {
	var word uint64
	switch v.Kind() {
	case reflect.Pointer:
		hashBits(h, v.Elem())
		return
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type() == reflect.TypeOf(Result{}) && v.Type().Field(i).Name == "Seconds" {
				continue
			}
			hashBits(h, v.Field(i))
		}
		return
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			hashBits(h, v.Index(i))
		}
		word = uint64(v.Len())
	case reflect.Float64:
		word = math.Float64bits(v.Float())
	case reflect.Int:
		word = uint64(v.Int())
	default:
		panic("golden: Result grew a field of kind " + v.Kind().String())
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], word)
	h.Write(buf[:])
}

// TestGoldenModeBits pins what one evolution returns, bit for bit, on every
// kind of mode the sweeps and the facade run: one SHA-256 per case over the
// whole Result (moments, fluids, metric, the regime times, every field of
// every recorded sample, the step counts and the cutoff). The driver may be
// rearranged freely underneath; no rearrangement may move this file.
func TestGoldenModeBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64; other targets may fuse multiply-adds")
	}
	scdm := model(t)
	one := func(mdl *Model, p Params) func() ([]*Result, error) {
		return func() ([]*Result, error) {
			r, err := mdl.EvolveWith(p, nil)
			return []*Result{r}, err
		}
	}
	fastLOS := Params{LMax: 24, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true}
	at := func(p Params, k float64) Params { p.K = k; return p }
	cases := map[string]func() ([]*Result, error){
		"exact_sync_k0.05_l50":      one(scdm, Params{K: 0.05, LMax: 50, Gauge: Synchronous}),
		"exact_newt_src_k0.02_l24":  one(scdm, Params{K: 0.02, LMax: 24, Gauge: ConformalNewtonian, KeepSources: true}),
		"fast_newt_src_k0.002_l24":  one(scdm, at(fastLOS, 0.002)),
		"fast_newt_src_k0.02_l24":   one(scdm, at(fastLOS, 0.02)),
		"fast_newt_src_k0.1_l24":    one(scdm, at(fastLOS, 0.1)),
		"fast_sync_k0.05_l60":       one(scdm, Params{K: 0.05, LMax: 60, Gauge: Synchronous, FastEvolve: true}),
		"brute_sync_k0.03_l450":     one(scdm, Params{K: 0.03, LMax: 450, Gauge: Synchronous}),
		"fast_newt_src_tauend600":   one(scdm, Params{K: 0.03, LMax: 24, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true, TauEnd: 600}),
		"rk4_newt_src_k0.05_l8":     one(scdm, Params{K: 0.05, LMax: 8, Gauge: ConformalNewtonian, KeepSources: true, integrator: ode.NewRK4(400)}),
		"batch_of_one_perk12_k0.02": func() ([]*Result, error) { return scdm.EvolveBatchWith([]float64{0.02}, fastLOS, []int{12}, nil) },
		"batch_of_four":             func() ([]*Result, error) { return scdm.EvolveBatchWith(batchKs, fastLOS, nil, nil) },
	}
	if !testing.Short() || *updateGolden {
		// The model of TestFastEvolveMDM: the massive-neutrino block rides
		// through every re-layout, the streaming one included.
		bg, err := cosmology.NewFlattened(cosmology.MDM(4.0))
		if err != nil {
			t.Fatal(err)
		}
		th, err := thermo.New(bg, recomb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mdm := NewModel(bg, th)
		cases["mdm_fast_sync_k0.03_l20"] = one(mdm, Params{K: 0.03, LMax: 20, Gauge: Synchronous, FastEvolve: true})
		cases["mdm_fast_newt_src_k0.03_l20"] = one(mdm, Params{K: 0.03, LMax: 20, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true})
	}

	got := map[string]string{}
	for name, run := range cases {
		rs, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		hashBits(h, reflect.ValueOf(rs))
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenModePath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenModePath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", goldenModePath, err)
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: mode bits moved: digest %s, recorded %s", name, sum, want[name])
		}
	}
}
