//go:build !amd64

package ode

func accum(dst, base []float64, h float64, nz []nzc, k [][]float64) {
	accumGo(dst, base, h, nz, k)
}

func flush(dst, src []float64) { flushGo(dst, src) }
