package specfunc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the values whose bits a kernel is most likely to get wrong:
// signed zeros, subnormals, the smallest normals, infinities and NaN.
var specials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1.5, 1e300, -1e-300,
}

// fill returns n values, a third of them drawn from specials.
func fill(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return v
}

// sameSum compares two sums bit for bit, except that a NaN only has to be a
// NaN: when both operands of an x86 add or multiply are NaN the result is
// the first one's, and which operand comes first is the compiler's choice
// in the Go loop and the kernel's in SSE2. No projected sum is NaN.
func sameSum(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// pairTable is a synthetic pair layout: np pairs of nodes fine nodes each,
// with the coarse copy every BesselNodeStride-th node, every value from
// vals. rows returns the row in lane lane of pair q.
type pairTable struct {
	nodes  int
	pairs  [][]float64
	coarse [][]float64
}

func newPairTable(np, nodes int, vals func(n int) []float64) *pairTable {
	pt := &pairTable{nodes: nodes}
	nc := (nodes + BesselNodeStride - 1) / BesselNodeStride
	for q := 0; q < np; q++ {
		pt.pairs = append(pt.pairs, vals(6*nodes))
		pt.coarse = append(pt.coarse, vals(6*nc))
	}
	return pt
}

func (pt *pairTable) row(q, lane int) BesselRow {
	return BesselRow{pair: pt.pairs[q], coarse: pt.coarse[q], lane: lane, invH: 1, n: pt.nodes}
}

// pairShapes are the ways four rows can sit in the pairs of a four-pair
// table: two whole pairs in order and swapped, lanes crossed, a row whose
// partner is missing (three pairs, one with a spare lane), four distinct
// pairs, and one row four times.
var pairShapes = []struct {
	name string
	rows [4][2]int // (pair, lane) of each row
}{
	{"two pairs", [4][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}},
	{"pairs swapped", [4][2]int{{1, 0}, {1, 1}, {0, 0}, {0, 1}}},
	{"lanes crossed", [4][2]int{{1, 1}, {0, 0}, {1, 0}, {0, 1}}},
	{"three pairs", [4][2]int{{0, 1}, {1, 0}, {1, 1}, {2, 0}}},
	{"four pairs", [4][2]int{{3, 1}, {0, 0}, {2, 1}, {1, 0}}},
	{"one row", [4][2]int{{2, 1}, {2, 1}, {2, 1}, {2, 1}}},
}

// kernelCase compares AccumStencil4 and AccumNodes4 with the Go loops they
// are made of, and each sum with its row's own AccumStencil / AccumNodes,
// for every pair shape, with the four rows over [lo, hi[r]).
func kernelCase(t *testing.T, what string, pt *pairTable, st *BesselStencil, node, lo int, hi [4]int, sA, sB, sC []float64) {
	t.Helper()
	for _, shape := range pairShapes {
		var rows [4]BesselRow
		for r, pl := range shape.rows {
			rows[r] = pt.row(pl[0], pl[1])
		}
		gotS := AccumStencil4(&rows, st, lo, &hi, sA, sB, sC)
		gotN := AccumNodes4(&rows, node, lo, &hi, sA, sB, sC)
		common := max(lo, min(hi[0], hi[1], hi[2], hi[3]))
		jointS := accumStencil4Go(&rows, st, lo, common, sA, sB, sC)
		jointN := accumNodes4Go(&rows, node, lo, common, sA, sB, sC)
		for r := range rows {
			if want := rows[r].accumStencilFrom(jointS[r], st, common, hi[r], sA, sB, sC); !sameSum(gotS[r], want) {
				t.Fatalf("%s, %s, row %d: AccumStencil4 %v (%#016x), the Go loop gives %v (%#016x)", what, shape.name, r,
					gotS[r], math.Float64bits(gotS[r]), want, math.Float64bits(want))
			}
			if one := rows[r].AccumStencil(st, lo, hi[r], sA, sB, sC); !sameSum(gotS[r], one) {
				t.Fatalf("%s, %s, row %d: AccumStencil4 %v, AccumStencil %v", what, shape.name, r, gotS[r], one)
			}
			if want := rows[r].accumNodesFrom(jointN[r], node-(common-lo), common, hi[r], sA, sB, sC); !sameSum(gotN[r], want) {
				t.Fatalf("%s, %s, row %d: AccumNodes4 %v (%#016x), the Go loop gives %v (%#016x)", what, shape.name, r,
					gotN[r], math.Float64bits(gotN[r]), want, math.Float64bits(want))
			}
			if one := rows[r].AccumNodes(node, lo, hi[r], sA, sB, sC); !sameSum(gotN[r], one) {
				t.Fatalf("%s, %s, row %d: AccumNodes4 %v, AccumNodes %v", what, shape.name, r, gotN[r], one)
			}
		}
	}
}

// randomStencil fills st for n arguments spread over a table of nodes
// nodes, a third of its weights then replaced by specials.
func randomStencil(rng *rand.Rand, nodes, n int, st *BesselStencil) {
	xs := make([]float64, n)
	for p := range xs {
		xs[p] = float64(nodes) * rng.Float64()
	}
	(&BesselTable{H: 1, nodes: nodes}).Stencil(xs, st)
	for p := range st.w {
		for i, v := range fill(rng, 4) {
			if rng.Intn(3) == 0 {
				st.w[p][i] = v
			}
		}
	}
}

// TestAccumKernelsMatchLoops: the two-pair kernels behind AccumStencil4 and
// AccumNodes4 reproduce the Go loops bit for bit at every length 0-33 and
// one long run, with signed zeros, subnormals, infinities and NaN in the
// sources, the weights and the table values, for equal and ragged row
// ranges and every way four rows can sit in pairs.
func TestAccumKernelsMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const nodes = 6100 // 1017 coarse nodes: the long run walks 1000 of them
	pt := newPairTable(4, nodes, func(n int) []float64 { return fill(rng, n) })
	var st BesselStencil
	for _, n := range append(rangeTo(33), 1000) {
		lo := rng.Intn(3)
		total := lo + n
		randomStencil(rng, nodes, total, &st)
		sA, sB, sC := fill(rng, total), fill(rng, total), fill(rng, total)
		// Point lo's coarse node, and a joint walk over at least half the range.
		node := (nodes-1)/BesselNodeStride - rng.Intn(3)
		mid := lo + n/2
		equal := [4]int{total, total, total, total}
		ragged := [4]int{total, mid + rng.Intn(n-n/2+1), mid, mid + rng.Intn(n-n/2+1)}
		kernelCase(t, fmt.Sprintf("n=%d equal", n), pt, &st, node, lo, equal, sA, sB, sC)
		kernelCase(t, fmt.Sprintf("n=%d ragged", n), pt, &st, node, lo, ragged, sA, sB, sC)
	}
}

func rangeTo(n int) []int {
	r := make([]int, n+1)
	for i := range r {
		r[i] = i
	}
	return r
}

// FuzzAccumPairs compares AccumStencil4 and AccumNodes4 with their Go loops
// on fuzzed values, for every pair shape: the bytes give the sources, and
// rotations of them fill four pairs' tables and the stencil weights; the
// fuzzer also picks the seed of the stencil's offsets and where one row's
// range ends.
func FuzzAccumPairs(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(specials...), int64(1), uint8(0))
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9), int64(2), uint8(3))
	f.Add(seed(5e-324, math.Copysign(0, -1), math.Inf(1), -1), int64(3), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, offSeed int64, cut uint8) {
		// At most maxPoints values: a longer input only repeats the walk.
		const maxPoints = 128
		vals := make([]float64, min(len(data)/8, maxPoints))
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n := len(vals)
		if n == 0 {
			return
		}
		at := 0
		next := func(m int) []float64 { // m values, rotating through vals
			v := make([]float64, m)
			for i := range v {
				v[i] = vals[at%n]
				at++
			}
			return v
		}
		const nodes = BesselNodeStride * maxPoints // a coarse node for every point
		pt := newPairTable(4, nodes, next)
		rng := rand.New(rand.NewSource(offSeed))
		xs := make([]float64, n)
		for p := range xs {
			xs[p] = float64(nodes) * rng.Float64()
		}
		var st BesselStencil
		(&BesselTable{H: 1, nodes: nodes}).Stencil(xs, &st)
		for p := range st.w {
			copy(st.w[p][:], next(4))
		}
		sA, sB, sC := vals, next(n), next(n)
		total := min(n, (nodes-1)/BesselNodeStride+1)
		hi := [4]int{total, total, total - int(cut)%(total+1), total}
		kernelCase(t, "fuzz", pt, &st, total-1, 0, hi, sA, sB, sC)
	})
}
