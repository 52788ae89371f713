package specfunc

import "testing"

// BenchmarkSphericalBesselJArray is the exact-recurrence kernel cost the
// reference LOS projection pays at every quadrature point.
func BenchmarkSphericalBesselJArray(b *testing.B) {
	b.ReportAllocs()
	var jl []float64
	x := 0.3
	for i := 0; i < b.N; i++ {
		jl = SphericalBesselJArray(151, x, jl)
		x += 1.7
		if x > 350 {
			x = 0.3
		}
	}
	_ = jl
}

// BenchmarkBesselTableEval is the fast path's replacement: one cubic
// interpolation returning all three LOS kernels.
func BenchmarkBesselTableEval(b *testing.B) {
	tbl := NewBesselTable(150, []int{2, 10, 50, 150}, 384, 0, nil)
	row, _ := tbl.Row(150)
	b.ReportAllocs()
	b.ResetTimer()
	x := 0.3
	var acc float64
	for i := 0; i < b.N; i++ {
		j, jp, q := row.Eval(x)
		acc += j + jp + q
		x += 1.7
		if x > 350 {
			x = 0.3
		}
	}
	_ = acc
}

// BenchmarkBesselTableBuild is the one-off table construction the process
// cache amortizes over every later projection.
func BenchmarkBesselTableBuild(b *testing.B) {
	ls := make([]int, 0, 30)
	for l := 2; l <= 150; l += 5 {
		ls = append(ls, l)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewBesselTable(150, ls, 384, 0, nil)
	}
}

// BenchmarkAccumStencil compares the projection's inner kernel one row at
// a time, four rows per pass, and four rows per pass with the points on the
// table's coarse nodes (AccumNodes4: no interpolation), on a paper-sized
// ladder (rows far larger than cache) and a mode-sized stencil; all report
// ns per (point, row).
func BenchmarkAccumStencil(b *testing.B) {
	ls := make([]int, 0, 56)
	for l := 2; len(ls) < 56; l += 18 {
		ls = append(ls, l)
	}
	tbl := NewBesselTable(1000, ls, 1200, 0, nil)
	const n = 3000
	xs, src := make([]float64, n), make([]float64, n)
	for p := range xs {
		xs[p] = 1200 * float64(n-1-p) / float64(n-1)
		src[p] = float64(p%7) - 3
	}
	var st BesselStencil
	tbl.Stencil(xs, &st)
	rows := make([]BesselRow, len(ls))
	for i, l := range ls {
		rows[i], _ = tbl.Row(l)
	}
	var acc float64
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*len(rows)), "ns/point")
	}
	b.Run("one row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				acc += row.AccumStencil(&st, 0, n, src, src, src)
			}
		}
		report(b)
	})
	b.Run("four rows", func(b *testing.B) {
		hi := [4]int{n, n, n, n}
		for i := 0; i < b.N; i++ {
			for g := 0; g+4 <= len(rows); g += 4 {
				sums := AccumStencil4((*[4]BesselRow)(rows[g:]), &st, 0, &hi, src, src, src)
				acc += sums[0] + sums[1] + sums[2] + sums[3]
			}
		}
		report(b)
	})
	b.Run("four rows on nodes", func(b *testing.B) {
		hi := [4]int{n, n, n, n}
		for i := 0; i < b.N; i++ {
			for g := 0; g+4 <= len(rows); g += 4 {
				sums := AccumNodes4((*[4]BesselRow)(rows[g:]), n-1, 0, &hi, src, src, src)
				acc += sums[0] + sums[1] + sums[2] + sums[3]
			}
		}
		report(b)
	})
	_ = acc
}

// fourRows returns four rows, two pairs, of a table like one paper-scale
// mode reads, and sources for n points.
func fourRows(n int) (*BesselTable, *[4]BesselRow, []float64, []float64, []float64) {
	ls := []int{100, 120, 140, 160}
	tbl := NewBesselTable(160, ls, 1216, 0, nil)
	var rows [4]BesselRow
	for i, l := range ls {
		rows[i], _ = tbl.Row(l)
	}
	sA, sB, sC := make([]float64, n), make([]float64, n), make([]float64, n)
	for p := range sA {
		sA[p], sB[p], sC[p] = float64(p%7)-3, float64(p%5)-2, float64(p%3)-1
	}
	return tbl, &rows, sA, sB, sC
}

// BenchmarkAccumNodes4 is the projection's free-streaming kernel at the
// shape of one paper-scale mode: four rows, two pairs, walked down 3200
// coarse nodes, on the SSE2 kernel (AccumNodes4) and on the Go loop it
// replaces (accumNodes4Go); both report ns per (point, row).
func BenchmarkAccumNodes4(b *testing.B) {
	const n = 3200
	_, rows, sA, sB, sC := fourRows(n)
	hi := [4]int{n, n, n, n}
	var acc float64
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*4), "ns/point")
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := AccumNodes4(rows, n-1, 0, &hi, sA, sB, sC)
			acc += s[0] + s[1] + s[2] + s[3]
		}
		report(b)
	})
	b.Run("go loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := accumNodes4Go(rows, n-1, 0, n, sA, sB, sC)
			acc += s[0] + s[1] + s[2] + s[3]
		}
		report(b)
	})
	_ = acc
}

// BenchmarkAccumStencil4Window is the interpolated kernel at the shape of
// a mode's visibility window: four rows, two pairs, over 1000 points a few
// per node, on the SSE2 kernel and on the Go loop.
func BenchmarkAccumStencil4Window(b *testing.B) {
	const n = 1000
	tbl, rows, sA, sB, sC := fourRows(n)
	xs := make([]float64, n)
	for p := range xs {
		xs[p] = 200 - 0.08*float64(p)
	}
	var st BesselStencil
	tbl.Stencil(xs, &st)
	hi := [4]int{n, n, n, n}
	var acc float64
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*4), "ns/point")
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := AccumStencil4(rows, &st, 0, &hi, sA, sB, sC)
			acc += s[0] + s[1] + s[2] + s[3]
		}
		report(b)
	})
	b.Run("go loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := accumStencil4Go(rows, &st, 0, n, sA, sB, sC)
			acc += s[0] + s[1] + s[2] + s[3]
		}
		report(b)
	})
	_ = acc
}
