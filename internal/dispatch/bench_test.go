package dispatch

import (
	"context"
	"testing"

	"plinger/internal/core"
)

// BenchmarkPoolSchedule times the pool's largest-first hand-out on a skewed
// k grid (many cheap small-k modes, a few expensive large-k ones), with and
// without the per-k adaptive hierarchy, which removes work outright. The
// hand-out order ablation itself is cmd/scaling's replay of recorded costs.
func BenchmarkPoolSchedule(b *testing.B) {
	m := model(b)
	var ks []float64
	for i := 0; i < 12; i++ {
		ks = append(ks, 0.001+0.001*float64(i))
	}
	ks = append(ks, 0.06, 0.08, 0.1)
	mode := core.Params{LMax: 300, Gauge: core.Synchronous, TauEnd: 300}
	for _, cfg := range []struct {
		name  string
		adapt bool
	}{
		{"largest-first", false},
		{"largest-first+adaptive", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := &Pool{Model: m, Workers: 4, AdaptLMax: cfg.adapt}
				_, st, err := p.Run(context.Background(), ks, mode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*st.Efficiency, "eff%")
				b.ReportMetric(st.Wallclock*1e3, "ms-wall")
			}
		})
	}
}
