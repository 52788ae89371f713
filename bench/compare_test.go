package main

import (
	"io"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	cases := []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"same code", lower, steady, steady, verdictWithin},
		{"5% slower is inside a 10% bound", lower, steady, shift(steady, 1.05), verdictWithin},
		{"15% slower is worse", lower, steady, shift(steady, 1.15), verdictWorse},
		{"15% faster is better", lower, steady, shift(steady, 0.85), verdictBetter},
		{"direction flips for higher-is-better", higher, steady, shift(steady, 0.85), verdictWorse},
		{"throughput up 15%", higher, steady, shift(steady, 1.15), verdictBetter},
		{"spread wider than the bound settles nothing", lower, noisy, shift(noisy, 1.02), verdictUnresolved},
		{"unless every new run beats every old one", lower, noisy, shift(steady, 0.5), verdictBetter},
		{"a noisy metric that got worse is still worse", lower, noisy, shift(noisy, 1.3), verdictWorse},
		{"one run a side has no spread", lower, []float64{100}, []float64{104}, verdictWithin},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFailsOnWorseOrMoreFailures(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	// A set in which every metric of every workload reads 100, 101, 99.
	set := func(scale map[string]float64, failed int) *suiteFile {
		sf := &suiteFile{}
		for _, wl := range c.Workloads {
			for _, v := range []float64{100, 101, 99} {
				r := &runResult{Workload: wl.Name, Values: map[string]summary{}, Attempted: 1000, Failed: failed}
				for _, d := range c.EndToEnd {
					f := 1.0
					if s, ok := scale[wl.Name+"/"+d.Name]; ok {
						f = s
					}
					r.Values[d.Name] = summarize([]float64{v * f})
				}
				sf.Timed = append(sf.Timed, r)
			}
			sf.Traced = append(sf.Traced, &runResult{Workload: wl.Name, Layers: map[string]float64{"ode.steps": 42}})
		}
		return sf
	}
	base := set(nil, 0)
	if !compareSets(c, base, set(nil, 0), io.Discard) {
		t.Error("a set compared with its twin must pass (the A/A check)")
	}
	if compareSets(c, base, set(map[string]float64{"serve_hot/hit_p50_ms": 1.4}, 0), io.Discard) {
		t.Error("a 40% slower hit_p50_ms on serve_hot must fail the comparison")
	}
	if !compareSets(c, base, set(map[string]float64{"serve_hot/hit_p50_ms": 0.8}, 0), io.Discard) {
		t.Error("an improvement must pass")
	}
	if compareSets(c, base, set(nil, 3), io.Discard) {
		t.Error("a larger failed share must fail the comparison")
	}
}
