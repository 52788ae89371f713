package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestQuantileExactSamples(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"odd median is the middle sample", []float64{1, 2, 9}, 0.5, 2},
		{"even median is the mean of the middle pair", []float64{1, 2, 4, 9}, 0.5, 3},
		{"p0 is the minimum", []float64{3, 5, 8}, 0, 3},
		{"p100 is the maximum", []float64{3, 5, 8}, 1, 8},
		{"interpolates between order statistics", []float64{0, 10, 20, 30, 40}, 0.9, 36},
		{"single sample", []float64{7}, 0.99, 7},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: quantile(%v, %g) = %g, want %g", c.name, c.sorted, c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
	if got := median([]float64{9, 1, 4}); got != 4 {
		t.Errorf("median sorts a copy: got %g, want 4", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it,
// capped at the percentile the metric is named for.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n         int
		wantP     float64
		wantValue float64
	}{
		{5, 0.5, 3},         // far too few: the median
		{19, 0.5, 10},       // still cannot leave ten beyond anything above the middle
		{20, 0.5, 10},       // rank 10 of 20: exactly ten beyond
		{44, 34.0 / 44, 34}, // rank n-10
		{100, 0.9, 90},
		{999, 989.0 / 999, 989},
		{1000, 0.99, 990.01}, // the cap is reachable: p99 by interpolation
		{50000, 0.99, 49500.01},
	}
	for _, c := range cases {
		p, v := tail(seq(c.n), 0.99)
		if math.Abs(p-c.wantP) > 1e-12 || math.Abs(v-c.wantValue) > 1e-6 {
			t.Errorf("n=%d: tail = (p %g, value %g), want (p %g, value %g)", c.n, p, v, c.wantP, c.wantValue)
		}
		if beyond := float64(c.n) - math.Ceil(p*float64(c.n)); c.n >= 20 && beyond < tailBeyond {
			t.Errorf("n=%d: only %g samples beyond p%g", c.n, beyond, 100*p)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{20, 10}, 7.5, 15, 22.5}, // two points extrapolate, as Python does
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10, 11}, 3, 6, 9},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.values)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestSummaryKeepsRoundValues(t *testing.T) {
	rounds := []float64{12, 10, 11, 50, 10.5, 11.5}
	s := summarize(rounds)
	if s.Median != 11.25 {
		t.Errorf("median of rounds = %g, want 11.25 (one slow round must not move it far)", s.Median)
	}
	if len(s.Values) != len(rounds) || s.Values[3] != 50 {
		t.Errorf("per-round values must stay in the output: %v", s.Values)
	}
	if !(s.Q1 < s.Median && s.Median < s.Q3) {
		t.Errorf("quartiles out of order: %g %g %g", s.Q1, s.Median, s.Q3)
	}
	// A regression that hits half the rounds must show in the run's value.
	if half := summarize([]float64{10, 10.2, 15, 16, 9.9, 14}); half.Median != 12.1 {
		t.Errorf("median of rounds = %g, want 12.1", half.Median)
	}
}

func TestUsageDeltas(t *testing.T) {
	u0 := readUsage()
	if u0.MaxRSSMB <= 0 {
		t.Fatalf("peak RSS = %g MB, want > 0", u0.MaxRSSMB)
	}
	x := 0.0
	for i := 0; i < 30_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	grow := make([]byte, 32<<20)
	for i := range grow {
		grow[i] = byte(i)
	}
	u1 := readUsage()
	if x < 0 || grow[len(grow)-1] == 1 {
		t.Fatal("unreachable; keeps the work alive")
	}
	if d := u1.CPUSeconds - u0.CPUSeconds; d <= 0 || d > 10 {
		t.Errorf("CPU delta over a busy loop = %g s", d)
	}
	if u1.MaxRSSMB < u0.MaxRSSMB {
		t.Errorf("peak RSS went down: %g -> %g MB", u0.MaxRSSMB, u1.MaxRSSMB)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	// op: [0,100); children [10,40) and [30,60) overlap by 10; a grandchild
	// [12,20) takes from its parent only.
	spans := []span{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 60},
		{Name: "a1", Parent: 1, StartNS: 12, EndNS: 20},
	}
	got := selfTimes(spans)
	want := []int64{50, 22, 30, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var nilRec *recorder
	if nilRec.start("x", 1, noSpan).end() != 0 || nilRec.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
	rec := newRecorder()
	root := rec.start("op", 7, noSpan)
	rec.start("child", 7, root).end()
	root.end()
	s := rec.snapshot()
	if len(s) != 2 || s[1].Parent != 0 || s[1].Op != 7 || s[0].EndNS < s[1].EndNS {
		t.Errorf("recorded spans wrong: %+v", s)
	}
}

// The serve probe's loopback burst starts well into the recording, and a
// span's Parent is its parent's position in the whole of it.
func TestMedianSelfUSOnABurstThatStartsLate(t *testing.T) {
	spans := []span{
		{Name: "serve.validate", Parent: -1, StartNS: 0, EndNS: 50_000},
		{Name: "serve.key", Parent: -1, StartNS: 50_000, EndNS: 90_000},
	}
	first := len(spans)
	for i := 0; i < 3; i++ {
		t0 := int64(100_000 + i*200_000)
		hit := len(spans)
		spans = append(spans,
			span{Name: "op.probe_hit", Parent: -1, StartNS: t0, EndNS: t0 + 100_000},
			span{Name: "serve.handler", Parent: hit, StartNS: t0 + 30_000, EndNS: t0 + 70_000})
	}
	if got := medianSelfUS(spans, first, "op.probe_hit"); got != 60 {
		t.Errorf("median self time of the hits = %g us, want 60 (100 less the 40 the handler covers)", got)
	}
	if got := medianSelfUS(spans, first, "serve.handler"); got != 40 {
		t.Errorf("median self time of the handler spans = %g us, want 40", got)
	}
}
