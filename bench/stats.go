package main

import (
	"math"
	"sort"
	"syscall"
)

// quantile returns the p-quantile (0 <= p <= 1) of an ascending sample by
// linear interpolation between the two closest order statistics, so the
// median of an even sample is the mean of its middle pair. The samples are
// the measured values themselves, never histogram buckets. Empty input
// returns NaN.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	i := int(pos)
	f := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + f*(sorted[i+1]-sorted[i])
}

// median sorts a copy of values and returns its middle.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than an anecdote.
const tailBeyond = 10

// tail reports the upper tail of an ascending sample: the highest
// percentile, capped at maxP, that still has at least tailBeyond samples
// beyond it. With n samples that is the one ranked n-tailBeyond, unless
// maxP already sits at or below it. A sample too small to leave ten beyond
// anything above its middle (n < 2*tailBeyond) reports the median. It
// returns the percentile actually used alongside the value.
func tail(sorted []float64, maxP float64) (p, value float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n < 2*tailBeyond {
		return 0.5, quantile(sorted, 0.5)
	}
	rank := n - tailBeyond // 1-based: exactly tailBeyond samples lie beyond it
	if float64(rank) >= maxP*float64(n) {
		return maxP, quantile(sorted, maxP)
	}
	return float64(rank) / float64(n), sorted[rank-1]
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance driver uses
// for spreads: cut point i sits at position i*(n+1)/4 among the ranked
// values, clamped to the sample. A single value is its own quartiles (the
// Python function refuses it); none gives NaNs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure every bound is judged against.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	m := median(values)
	if m == 0 || math.IsNaN(q1) {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / m)
}

// summary is one quantity reduced over a run's rounds (or processes): the
// run's value is the median. The per-round values and their quartiles stay in
// the output so a reader can see what the one reported number hides.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	s := summary{Median: median(values), Values: values}
	s.Q1, _, s.Q3 = quartiles(values)
	return s
}

// usage is a getrusage snapshot of this process.
type usage struct {
	CPUSeconds float64 // user + system
	MaxRSSMB   float64 // peak resident set (ru_maxrss is KiB on Linux)
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		CPUSeconds: tv(ru.Utime) + tv(ru.Stime),
		MaxRSSMB:   float64(ru.Maxrss) / 1024,
	}
}
