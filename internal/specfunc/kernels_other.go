//go:build !amd64

package specfunc

func accumStencilJoint(rows *[4]BesselRow, st *BesselStencil, lo, hi int, sA, sB, sC []float64) [4]float64 {
	return accumStencil4Go(rows, st, lo, hi, sA, sB, sC)
}

func accumNodesJoint(rows *[4]BesselRow, node, lo, hi int, sA, sB, sC []float64) [4]float64 {
	return accumNodes4Go(rows, node, lo, hi, sA, sB, sC)
}
