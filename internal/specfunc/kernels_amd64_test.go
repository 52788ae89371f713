package specfunc

import (
	"math"
	"math/rand"
	"testing"
)

// guardedSums returns a four-sum output with sentinels on both sides of it
// in the same array, seeded with start, and a check that the sentinels are
// untouched.
func guardedSums(t *testing.T, start [4]float64) (*[4]float64, func()) {
	const pad = 3
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	var buf [4 + 2*pad]float64
	for i := range buf {
		buf[i] = sentinel
	}
	copy(buf[pad:], start[:])
	return (*[4]float64)(buf[pad:]), func() {
		t.Helper()
		for i, v := range buf {
			if (i < pad || i >= pad+4) && math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("a write landed outside the sums, at offset %d", i-pad)
			}
		}
	}
}

// TestPairKernelsMatchLoops calls the two SSE2 kernels directly, at every
// length 0-33 and one long run, continuing running sums that start from
// specials: each lane must be its row's Go loop bit for bit, and nothing
// may be written beside the four sums.
func TestPairKernelsMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const nodes = 6100
	pt := newPairTable(2, nodes, func(n int) []float64 { return fill(rng, n) })
	rows := [4]BesselRow{pt.row(0, 0), pt.row(0, 1), pt.row(1, 0), pt.row(1, 1)}
	var st BesselStencil
	for _, n := range append(rangeTo(33), 1000) {
		randomStencil(rng, nodes, n+1, &st)
		sA, sB, sC := fill(rng, n+1), fill(rng, n+1), fill(rng, n+1)
		var start [4]float64
		copy(start[:], fill(rng, 4))
		node := (nodes - 1) / BesselNodeStride

		sums, check := guardedSums(t, start)
		accumStencilSSE2(sums, &pt.pairs[0][0], &pt.pairs[1][0], &st.off[0], &st.w[0], &sA[0], &sB[0], &sC[0], n)
		check()
		for r := range rows {
			if want := rows[r].accumStencilFrom(start[r], &st, 0, n, sA, sB, sC); !sameSum(sums[r], want) {
				t.Fatalf("n=%d stencil lane %d: %v (%#016x), the Go loop gives %v (%#016x)", n, r,
					sums[r], math.Float64bits(sums[r]), want, math.Float64bits(want))
			}
		}

		sums, check = guardedSums(t, start)
		accumNodesSSE2(sums, &pt.coarse[0][6*node], &pt.coarse[1][6*node], &sA[0], &sB[0], &sC[0], n)
		check()
		for r := range rows {
			if want := rows[r].accumNodesFrom(start[r], node, 0, n, sA, sB, sC); !sameSum(sums[r], want) {
				t.Fatalf("n=%d nodes lane %d: %v (%#016x), the Go loop gives %v (%#016x)", n, r,
					sums[r], math.Float64bits(sums[r]), want, math.Float64bits(want))
			}
		}
	}
}

// TestPairKernelsPanicOnShortSlices: a source slice shorter than the range,
// a coarse walk that would run below node 0 and a stencil made for a larger
// table panic in the Go wrapper, before the kernel reads anything.
func TestPairKernelsPanicOnShortSlices(t *testing.T) {
	small := newPairTable(2, 60, func(n int) []float64 { return make([]float64, n) })
	big := newPairTable(2, 600, func(n int) []float64 { return make([]float64, n) })
	rows := [4]BesselRow{small.row(0, 0), small.row(0, 1), small.row(1, 0), small.row(1, 1)}
	var st BesselStencil
	(&BesselTable{H: 1, nodes: big.nodes}).Stencil(make([]float64, 20), &st)
	long, short := make([]float64, 20), make([]float64, 19)
	hi := [4]int{20, 20, 20, 20}
	for name, fn := range map[string]func(){
		"stencil sources":    func() { AccumStencil4(&rows, &st, 0, &hi, long, short, long) },
		"nodes sources":      func() { AccumNodes4(&rows, 9, 0, &hi, long, long, short) },
		"nodes below node 0": func() { AccumNodes4(&rows, 9, 0, &hi, long, long, long) },
		"stencil too large":  func() { AccumStencil4(&rows, &st, 0, &hi, long, long, long) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
