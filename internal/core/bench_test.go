package core

import (
	"fmt"
	"testing"
)

// BenchmarkEvolveLOSFast is one mode of a fast sweep — a conformal Newtonian
// source-recording run through a warm arena — at a wavenumber whose tight
// coupling lasts until the visibility window opens (0.02) and at one
// released long before it (0.1), with the accepted steps beside the time.
func BenchmarkEvolveLOSFast(b *testing.B) {
	m := model(b)
	for _, k := range []float64{0.02, 0.1} {
		b.Run(fmt.Sprintf("k=%g", k), func(b *testing.B) {
			p := losFast(k)
			sc := NewScratch()
			r, err := m.EvolveWith(p, sc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, err = m.EvolveWith(p, sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Stats.Steps), "steps/op")
		})
	}
}

// BenchmarkEvolveFixedHierarchy is the brute read-off's kind of mode — a
// synchronous-gauge evolution at k = 0.02 with every hierarchy fixed at
// l <= 415, where the hierarchy stencils and the integrator's vector passes
// are nearly all of the time — beside the same mode with a growing
// hierarchy (FastEvolve) and the line-of-sight mode fixed at l <= 24, whose
// FastEvolve twin is BenchmarkEvolveLOSFast/k=0.02.
func BenchmarkEvolveFixedHierarchy(b *testing.B) {
	m := model(b)
	los := losFast(0.02)
	los.FastEvolve = false
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"LMax=415", Params{K: 0.02, LMax: 415, Gauge: Synchronous}},
		{"LMax=415/FastEvolve", Params{K: 0.02, LMax: 415, Gauge: Synchronous, FastEvolve: true}},
		{"LOS/LMax=24", los},
	} {
		b.Run(c.name, func(b *testing.B) {
			sc := NewScratch()
			r, err := m.EvolveWith(c.p, sc)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, err = m.EvolveWith(c.p, sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Stats.Steps), "steps/op")
		})
	}
}
