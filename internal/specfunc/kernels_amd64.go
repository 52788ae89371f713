package specfunc

import "fmt"

// pairSlots maps four rows onto the distinct row pairs they live in, in
// first-seen order: pair q is the pair of rows[first[q]], and row r's sum
// is lane slot[r]%2 of pair slot[r]/2. Rows of one pair share its storage,
// so a pair is recognised by the address of its first value.
func pairSlots(rows *[4]BesselRow) (first [4]int, np int, slot [4]int) {
	for r := range rows {
		q := 0
		for q < np && &rows[first[q]].pair[0] != &rows[r].pair[0] {
			q++
		}
		if q == np {
			first[np] = r
			np++
		}
		slot[r] = 2*q + rows[r].lane
	}
	return first, np, slot
}

// accumStencilJoint is accumStencil4Go over [lo, hi), hi > lo, on the SSE2
// kernel, two pairs per call; an odd pair count runs its last pair twice.
// Every slice the kernel reads is checked here, so a short one panics
// before it runs.
func accumStencilJoint(rows *[4]BesselRow, st *BesselStencil, lo, hi int, sA, sB, sC []float64) (sums [4]float64) {
	_, _, _, _, _ = st.off[hi-1], st.w[hi-1], sA[hi-1], sB[hi-1], sC[hi-1]
	off, w, a, b, c := &st.off[lo], &st.w[lo], &sA[lo], &sB[lo], &sC[lo]
	first, np, slot := pairSlots(rows)
	for q := range np {
		if p := rows[first[q]].pair; len(p) < 6*st.nodes {
			panic(fmt.Sprintf("specfunc: a stencil over %d nodes used on a row of %d", st.nodes, len(p)/6))
		}
	}
	var acc [8]float64
	for q := 0; q < np; q += 2 {
		pa, pb := rows[first[q]].pair, rows[first[min(q+1, np-1)]].pair
		accumStencilSSE2((*[4]float64)(acc[2*q:]), &pa[0], &pb[0], off, w, a, b, c, hi-lo)
	}
	for r := range sums {
		sums[r] = acc[slot[r]]
	}
	return sums
}

// accumNodesJoint is accumNodes4Go over [lo, hi), hi > lo, on the SSE2
// kernel, checked and paired as accumStencilJoint.
func accumNodesJoint(rows *[4]BesselRow, node, lo, hi int, sA, sB, sC []float64) (sums [4]float64) {
	_, _, _ = sA[hi-1], sB[hi-1], sC[hi-1]
	a, b, c := &sA[lo], &sB[lo], &sC[lo]
	first, np, slot := pairSlots(rows)
	for q := range np {
		cs := rows[first[q]].coarse
		_, _ = cs[6*node+5], cs[6*(node-(hi-1-lo))]
	}
	var acc [8]float64
	for q := 0; q < np; q += 2 {
		ca, cb := rows[first[q]].coarse, rows[first[min(q+1, np-1)]].coarse
		accumNodesSSE2((*[4]float64)(acc[2*q:]), &ca[6*node], &cb[6*node], a, b, c, hi-lo)
	}
	for r := range sums {
		sums[r] = acc[slot[r]]
	}
	return sums
}

// accumStencilSSE2 continues the running sums of two row pairs over n
// stencil points: sums[0:2] are pair pa's lanes, sums[2:4] pair pb's, and
// point p (off, w, sA, sB, sC each advanced by p) adds, lane by lane,
// (a*J + b*J') + c*Q with J = ((w0*d0 + w1*d1) + w2*d2) + w3*d3 over the
// four stencil nodes from pair offset off[p].
//
//go:noescape
func accumStencilSSE2(sums *[4]float64, pa, pb *float64, off *int32, w *[4]float64, sA, sB, sC *float64, n int)

// accumNodesSSE2 continues the running sums of two row pairs over n coarse
// nodes: pa and pb point at the first point's node, each later point reads
// the node below, and each adds (a*J + b*J') + c*Q lane by lane.
//
//go:noescape
func accumNodesSSE2(sums *[4]float64, pa, pb *float64, sA, sB, sC *float64, n int)
