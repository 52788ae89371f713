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
