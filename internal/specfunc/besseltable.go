package specfunc

import (
	"math"
	"sync"
)

// BesselTable is the shared spherical-Bessel kernel table of the fast
// line-of-sight engine (the CMBFAST precomputation): for a set of multipoles
// l it tabulates, on a single uniform x grid,
//
//	j_l(x),   j_l'(x),   q_l(x) = (3 j_l''(x) + j_l(x)) / 2
//
// — exactly the three kernels of the LOS integral (monopole, dipole and
// quadrupole/polarization terms). The recurrences that the exact path pays
// at every (tau, l) quadrature point are paid here once per x node, for all
// l at a time, and evaluation becomes a four-point cubic interpolation
// (O(h^4) accurate; h = 1/16 keeps the kernel error below ~1e-6, far inside
// the 1e-3 C_l budget). Tables are immutable after construction and safe
// for concurrent readers.
//
// The rows are stored in pairs: tabulated multipoles ls[2i] and ls[2i+1]
// share one array whose node m holds [j_a, j_b, j'_a, j'_b, q_a, q_b], so
// one 16-byte load fills one SIMD lane per row and the projection kernels
// (AccumStencil4, AccumNodes4) walk two pairs, four rows, per pass. An odd
// row count leaves the last pair's second lane zero. Every pair also keeps
// a contiguous copy of every BesselNodeStride-th node in the same layout
// (+1/6 of the table's bytes). A LOS quadrature whose free-streaming points
// are laid on those nodes reads its kernels straight from the copy
// (AccumNodes4): no interpolation, and consecutive points are adjacent in
// memory instead of 6 nodes = 288 bytes apart.
type BesselTable struct {
	// LMax is the largest tabulated multipole; Xmax the largest argument
	// the grid covers; H the node spacing.
	LMax int
	Xmax float64
	H    float64

	rows  []besselRow // indexed by l; pair == nil means "not tabulated"
	ls    []int       // sorted multipoles actually tabulated
	nodes int         // x-grid node count, shared by every row
}

// besselRow locates one multipole in its pair's storage, plus the
// negligibility threshold used to truncate integrals below the turning
// point. The row's j, j', q at x = i*h are pair[6i+lane], pair[6i+2+lane]
// and pair[6i+4+lane]; coarse holds the pair's nodes 0, BesselNodeStride,
// 2 BesselNodeStride, ... in the same layout.
type besselRow struct {
	pair   []float64
	coarse []float64
	lane   int
	xlow   float64
}

// BesselRow is a borrowed, immutable view of one multipole's table for hot
// loops: fetch it once per mode, then Eval per quadrature point.
type BesselRow struct {
	pair   []float64
	coarse []float64
	lane   int
	invH   float64
	n      int
	// XLow is the argument below which all three kernels are negligible
	// (< ~1e-9 of the row peak): j_l is exponentially small below the
	// turning point x ~ l, so LOS integrals can skip x < XLow outright.
	XLow float64
}

// DefaultBesselH is the default node spacing: the kernels oscillate with
// period 2 pi, so 1/16 gives ~100 nodes per oscillation and interpolation
// errors near 1e-6.
const DefaultBesselH = 1.0 / 16.0

// BesselNodeStride is the node stride of the rows' contiguous coarse copy:
// x = m * BesselNodeStride * H, 0.375 at the default spacing or 16.76 nodes
// per kernel oscillation — the density a LOS quadrature wants anyway.
const BesselNodeStride = 6

// NewBesselTable tabulates the LOS kernels for the multipoles in ls (nil:
// every l in 0..lmax) on the uniform grid [0, xmax]. When par is non-nil
// the node sweep is fanned out through it (the dispatch subsystem's
// ParallelFor slots in here); par must run body(i) exactly once for every
// i in [0, n).
func NewBesselTable(lmax int, ls []int, xmax, h float64, par func(n int, body func(i int))) *BesselTable {
	if lmax < 0 {
		lmax = 0
	}
	if h <= 0 {
		h = DefaultBesselH
	}
	if xmax < h {
		xmax = h
	}
	if ls == nil {
		ls = make([]int, lmax+1)
		for l := range ls {
			ls[l] = l
		}
	} else {
		ls = sortedUniqueLs(ls)
		if n := len(ls); n > 0 && ls[n-1] > lmax {
			lmax = ls[n-1]
		}
	}
	// Nodes 0..n-1 cover [0, xmax] with two spare nodes so the four-point
	// stencil never runs off the end for x <= xmax.
	n := int(math.Ceil(xmax/h)) + 3
	t := &BesselTable{LMax: lmax, Xmax: xmax, H: h, rows: make([]besselRow, lmax+1), ls: ls, nodes: n}
	for i, l := range ls {
		if i%2 == 1 {
			t.rows[l] = t.rows[ls[i-1]]
			t.rows[l].lane = 1
			continue
		}
		t.rows[l].pair = make([]float64, 6*n)
		t.rows[l].coarse = make([]float64, 6*((n+BesselNodeStride-1)/BesselNodeStride))
	}

	// One backward recurrence per node fills every tabulated l at once.
	// Chunk the nodes so each parallel body amortizes its scratch buffer.
	const chunk = 256
	nchunks := (n + chunk - 1) / chunk
	body := func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		var jl []float64
		for i := lo; i < hi; i++ {
			x := float64(i) * h
			jl = SphericalBesselJArray(lmax+1, x, jl)
			for _, l := range ls {
				j, jp, jpp := besselKernels(jl, l, x)
				r := &t.rows[l]
				d := r.pair[6*i+r.lane : 6*i+r.lane+5 : 6*i+r.lane+5]
				d[0] = j
				d[2] = jp
				d[4] = 0.5 * (3.0*jpp + j)
				if i%BesselNodeStride == 0 {
					o := 6*(i/BesselNodeStride) + r.lane
					c := r.coarse[o : o+5 : o+5]
					c[0], c[2], c[4] = d[0], d[2], d[4]
				}
			}
		}
	}
	if par != nil && nchunks > 1 {
		par(nchunks, body)
	} else {
		for c := 0; c < nchunks; c++ {
			body(c)
		}
	}

	// Negligibility thresholds: j_l dies exponentially below the turning
	// point, so record where each row first becomes non-negligible.
	for _, l := range ls {
		r := &t.rows[l]
		r.xlow = rowXLow(r.pair[r.lane:], h)
	}
	return t
}

// besselKernels computes (j_l, j_l', j_l”) from a filled j array at
// argument x, with the same small-argument limit branches as the exact LOS
// path (j_1'(0) = 1/3, j_0”(0) = -1/3, j_2”(0) = 2/15).
func besselKernels(jl []float64, l int, x float64) (j, jp, jpp float64) {
	j = jl[l]
	if x > 1e-8 {
		if l == 0 {
			jp = -jl[1]
		} else {
			jp = jl[l-1] - float64(l+1)/x*j
		}
		jpp = (float64(l*(l+1))/(x*x)-1.0)*j - 2.0/x*jp
		return j, jp, jpp
	}
	switch l {
	case 0:
		jpp = -1.0 / 3.0
	case 1:
		jp = 1.0 / 3.0
	case 2:
		jpp = 2.0 / 15.0
	}
	return j, jp, jpp
}

// rowXLow scans a row for the first node where any kernel exceeds 1e-9 of
// the row peak and returns the x two nodes before it (0 when the row is
// live from the origin, as for small l). data is the row's lane of its
// pair: node i's kernels at data[6i], data[6i+2], data[6i+4].
func rowXLow(data []float64, h float64) float64 {
	n := (len(data) + 1) / 6
	var peak float64
	for i := 0; i < n; i++ {
		for _, v := range data[6*i : 6*i+5 : 6*i+5] {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
	}
	if peak == 0 {
		return 0
	}
	thresh := 1e-9 * peak
	for i := 0; i < n; i++ {
		if math.Abs(data[6*i]) > thresh ||
			math.Abs(data[6*i+2]) > thresh ||
			math.Abs(data[6*i+4]) > thresh {
			if i < 3 {
				return 0
			}
			return float64(i-2) * h
		}
	}
	return float64(n-1) * h
}

// Has reports whether multipole l is tabulated.
func (t *BesselTable) Has(l int) bool {
	return l >= 0 && l < len(t.rows) && t.rows[l].pair != nil
}

// Ls returns the tabulated multipoles in increasing order.
func (t *BesselTable) Ls() []int { return append([]int(nil), t.ls...) }

// Row returns the hot-loop view of multipole l. ok is false when l is not
// tabulated.
func (t *BesselTable) Row(l int) (BesselRow, bool) {
	if !t.Has(l) {
		return BesselRow{}, false
	}
	r := t.rows[l]
	return BesselRow{pair: r.pair, coarse: r.coarse, lane: r.lane, invH: 1.0 / t.H, n: t.nodes, XLow: r.xlow}, true
}

// Eval interpolates the three LOS kernels at x >= 0 with a four-point
// cubic through the bracketing nodes. Arguments beyond the table range are
// clamped to the boundary stencil (callers size Xmax to cover their run).
func (r BesselRow) Eval(x float64) (j, jp, q float64) {
	t := x * r.invH
	i := int(t)
	if i < 1 {
		i = 1
	} else if i > r.n-3 {
		i = r.n - 3
	}
	f := t - float64(i)
	if f > 2 {
		f = 2 // clamp out-of-range arguments to the last stencil
	}
	// Cubic Lagrange weights on the uniform nodes i-1, i, i+1, i+2.
	a, b, c := f-1.0, f-2.0, f+1.0
	w0 := -f * a * b / 6.0
	w1 := a * b * c / 2.0
	w2 := -f * b * c / 2.0
	w3 := f * a * c / 6.0
	o := 6*(i-1) + r.lane
	d := r.pair[o : o+23 : o+23]
	j = w0*d[0] + w1*d[6] + w2*d[12] + w3*d[18]
	jp = w0*d[2] + w1*d[8] + w2*d[14] + w3*d[20]
	q = w0*d[4] + w1*d[10] + w2*d[16] + w3*d[22]
	return j, jp, q
}

// BesselStencil is a precomputed interpolation stencil: the node index and
// four cubic weights for a set of arguments. All rows of a table share the
// same x grid, so a projection loop computes the stencil once per mode and
// reuses it for every multipole — the per-point work collapses to a
// 12-float (or 4-float) dot product.
type BesselStencil struct {
	off   []int32      // pair offset of the first stencil node, 6*(i-1)
	w     [][4]float64 // cubic Lagrange weights
	nodes int          // node count of the table the stencil was made for
}

// Stencil fills st with the interpolation stencil for the arguments xs
// (negative values are clamped to zero), reusing its storage.
func (t *BesselTable) Stencil(xs []float64, st *BesselStencil) {
	n := len(xs)
	if cap(st.off) < n {
		// Callers sweep modes in rising k, so n rises with every call:
		// grow by half again instead of to the exact size.
		st.off = make([]int32, n, n+n/2)
		st.w = make([][4]float64, n, n+n/2)
	}
	st.off = st.off[:n]
	st.w = st.w[:n]
	invH := 1.0 / t.H
	nn := t.nodes
	st.nodes = nn
	for p, x := range xs {
		if x < 0 {
			x = 0
		}
		tt := x * invH
		i := int(tt)
		if i < 1 {
			i = 1
		} else if i > nn-3 {
			i = nn - 3
		}
		f := tt - float64(i)
		if f > 2 {
			f = 2
		}
		a, b, c := f-1.0, f-2.0, f+1.0
		st.off[p] = int32(6 * (i - 1))
		st.w[p] = [4]float64{-f * a * b / 6.0, a * b * c / 2.0, -f * b * c / 2.0, f * a * c / 6.0}
	}
}

// AccumStencil sums sA[p] j + sB[p] j' + sC[p] q over stencil points
// [lo, hi) — a row's whole LOS integral in one call, so the per-point work
// is a branch-free fused dot product.
func (r BesselRow) AccumStencil(st *BesselStencil, lo, hi int, sA, sB, sC []float64) float64 {
	return r.accumStencilFrom(0, st, lo, hi, sA, sB, sC)
}

// accumStencilFrom continues AccumStencil's running sum over [lo, hi).
func (r BesselRow) accumStencilFrom(sum float64, st *BesselStencil, lo, hi int, sA, sB, sC []float64) float64 {
	pair := r.pair
	for p := lo; p < hi; p++ {
		o := int(st.off[p]) + r.lane
		w := &st.w[p]
		d := pair[o : o+23 : o+23]
		j := w[0]*d[0] + w[1]*d[6] + w[2]*d[12] + w[3]*d[18]
		jp := w[0]*d[2] + w[1]*d[8] + w[2]*d[14] + w[3]*d[20]
		q := w[0]*d[4] + w[1]*d[10] + w[2]*d[16] + w[3]*d[22]
		sum += sA[p]*j + sB[p]*jp + sC[p]*q
	}
	return sum
}

// AccumStencil4 is AccumStencil for four rows at once, row i over
// [lo, hi[i]): the range common to all four is walked jointly, so each
// point's offset, weights and sources are loaded once for four independent
// accumulators, and every row then continues alone from its running sum.
// Each sum therefore adds the same terms in the same order as a separate
// AccumStencil call and is bitwise equal to it. On amd64 the joint walk is
// an SSE2 kernel over the rows' pairs, one lane per row (a row whose
// partner is not among the four still runs in its pair, and the spare
// lane's sum is dropped); elsewhere it is accumStencil4Go.
func AccumStencil4(rows *[4]BesselRow, st *BesselStencil, lo int, hi *[4]int, sA, sB, sC []float64) (sums [4]float64) {
	common := max(lo, min(hi[0], hi[1], hi[2], hi[3]))
	if common > lo {
		sums = accumStencilJoint(rows, st, lo, common, sA, sB, sC)
	}
	for i := range sums {
		sums[i] = rows[i].accumStencilFrom(sums[i], st, common, hi[i], sA, sB, sC)
	}
	return sums
}

// accumStencil4Go is the joint walk of AccumStencil4 as a Go loop: the
// reference its SSE2 kernel is tested against, and the path off amd64.
// (The per-row term is spelled out four times: a helper would be past the
// inlining budget.)
func accumStencil4Go(rows *[4]BesselRow, st *BesselStencil, lo, hi int, sA, sB, sC []float64) [4]float64 {
	d0, d1, d2, d3 := rows[0].pair[rows[0].lane:], rows[1].pair[rows[1].lane:], rows[2].pair[rows[2].lane:], rows[3].pair[rows[3].lane:]
	var s0, s1, s2, s3 float64
	for p := lo; p < hi; p++ {
		o := st.off[p]
		w := &st.w[p]
		a, b, c := sA[p], sB[p], sC[p]
		d := d0[o : o+23 : o+23]
		s0 += a*(w[0]*d[0]+w[1]*d[6]+w[2]*d[12]+w[3]*d[18]) +
			b*(w[0]*d[2]+w[1]*d[8]+w[2]*d[14]+w[3]*d[20]) +
			c*(w[0]*d[4]+w[1]*d[10]+w[2]*d[16]+w[3]*d[22])
		d = d1[o : o+23 : o+23]
		s1 += a*(w[0]*d[0]+w[1]*d[6]+w[2]*d[12]+w[3]*d[18]) +
			b*(w[0]*d[2]+w[1]*d[8]+w[2]*d[14]+w[3]*d[20]) +
			c*(w[0]*d[4]+w[1]*d[10]+w[2]*d[16]+w[3]*d[22])
		d = d2[o : o+23 : o+23]
		s2 += a*(w[0]*d[0]+w[1]*d[6]+w[2]*d[12]+w[3]*d[18]) +
			b*(w[0]*d[2]+w[1]*d[8]+w[2]*d[14]+w[3]*d[20]) +
			c*(w[0]*d[4]+w[1]*d[10]+w[2]*d[16]+w[3]*d[22])
		d = d3[o : o+23 : o+23]
		s3 += a*(w[0]*d[0]+w[1]*d[6]+w[2]*d[12]+w[3]*d[18]) +
			b*(w[0]*d[2]+w[1]*d[8]+w[2]*d[14]+w[3]*d[20]) +
			c*(w[0]*d[4]+w[1]*d[10]+w[2]*d[16]+w[3]*d[22])
	}
	return [4]float64{s0, s1, s2, s3}
}

// AccumNodes4 is AccumStencil4 for arguments that sit on the table's coarse
// nodes: point p of [lo, hi[i]) has x = (node - (p - lo)) * BesselNodeStride
// * H, so its kernels are three values of the row's coarse copy — no
// stencil, no weights, and the walk runs down contiguous memory. Joint over
// the range common to all four rows (the SSE2 kernel on amd64, as in
// AccumStencil4), then each row alone from its running sum.
func AccumNodes4(rows *[4]BesselRow, node, lo int, hi *[4]int, sA, sB, sC []float64) (sums [4]float64) {
	common := max(lo, min(hi[0], hi[1], hi[2], hi[3]))
	if common > lo {
		sums = accumNodesJoint(rows, node, lo, common, sA, sB, sC)
	}
	for i := range sums {
		sums[i] = rows[i].accumNodesFrom(sums[i], node-(common-lo), common, hi[i], sA, sB, sC)
	}
	return sums
}

// accumNodes4Go is the joint walk of AccumNodes4 as a Go loop: the
// reference its SSE2 kernel is tested against, and the path off amd64.
func accumNodes4Go(rows *[4]BesselRow, node, lo, hi int, sA, sB, sC []float64) [4]float64 {
	c0, c1, c2, c3 := rows[0].coarse[rows[0].lane:], rows[1].coarse[rows[1].lane:], rows[2].coarse[rows[2].lane:], rows[3].coarse[rows[3].lane:]
	var s0, s1, s2, s3 float64
	for p, o := lo, 6*node; p < hi; p, o = p+1, o-6 {
		a, b, c := sA[p], sB[p], sC[p]
		d := c0[o : o+5 : o+5]
		s0 += a*d[0] + b*d[2] + c*d[4]
		d = c1[o : o+5 : o+5]
		s1 += a*d[0] + b*d[2] + c*d[4]
		d = c2[o : o+5 : o+5]
		s2 += a*d[0] + b*d[2] + c*d[4]
		d = c3[o : o+5 : o+5]
		s3 += a*d[0] + b*d[2] + c*d[4]
	}
	return [4]float64{s0, s1, s2, s3}
}

// AccumNodes is AccumNodes4 for one row.
func (r BesselRow) AccumNodes(node, lo, hi int, sA, sB, sC []float64) float64 {
	return r.accumNodesFrom(0, node, lo, hi, sA, sB, sC)
}

// accumNodesFrom continues AccumNodes' running sum over [lo, hi), point lo
// on coarse node `node`.
func (r BesselRow) accumNodesFrom(sum float64, node, lo, hi int, sA, sB, sC []float64) float64 {
	for p, o := lo, 6*node+r.lane; p < hi; p, o = p+1, o-6 {
		d := r.coarse[o : o+5 : o+5]
		sum += sA[p]*d[0] + sB[p]*d[2] + sC[p]*d[4]
	}
	return sum
}

// sortedUniqueLs returns a sorted copy of ls without duplicates or
// negative entries.
func sortedUniqueLs(ls []int) []int {
	seen := make(map[int]bool, len(ls))
	out := make([]int, 0, len(ls))
	for _, l := range ls {
		if l >= 0 && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// The process-wide table cache. C_l pipelines across a process ask for the
// same (multipole set, argument range) over and over; building costs
// milliseconds but evaluation happens billions of times, so tables are
// built once per key and shared. Keys are bucketed so nearby
// requests (xmax differing by the start-time offset, say) hit the same
// entry.
//
// The cache is bounded: entries carry a last-use stamp and the map is
// pruned to DefaultBesselCacheLimit least-recently-used-first, the same
// bounded-LRU discipline as the serving layer's model registry. Without
// the cap a daemon whose clients churn through resolutions (every distinct
// LMaxCl bucket and k-range bucket is a fresh key, each worth 3 to 31 MB)
// would leak tables for the life of the process. Evicted tables stay valid
// for any reader still holding them — they are immutable; eviction only
// drops the cache's reference.
var besselCache = struct {
	sync.Mutex
	m     map[besselCacheKey]*besselCacheEntry
	tick  uint64
	limit int
}{m: map[besselCacheKey]*besselCacheEntry{}, limit: DefaultBesselCacheLimit}

// besselCacheEntry pairs a cached table with its recency stamp. While a
// build for the key is in flight, building is non-nil (closed when the
// build lands) and t is the table the build supersedes, nil on a cold key.
type besselCacheEntry struct {
	t        *BesselTable
	lastUse  uint64
	building chan struct{}
}

// DefaultBesselCacheLimit bounds the shared table cache. Eight buckets
// cover every distinct (multipole cap, argument range) combination a
// realistic serving mix requests. A stock table (LMaxCl 150: 19 rows, 10
// pairs, to x = 384) is 3.4 MB with its coarse copy and eight of them
// ~28 MB; a paper-scale one (LMaxCl 1000: 57 rows, 29 pairs, to x = 1216)
// is 32 MB, so the worst case, eight paper-scale keys, is ~250 MB.
const DefaultBesselCacheLimit = 8

// SetBesselCacheLimit changes the shared-cache bound (n < 1 is treated as
// 1), pruning immediately, and returns the previous limit. It exists for
// tests and for daemons that want a different memory/raciness trade-off.
func SetBesselCacheLimit(n int) int {
	if n < 1 {
		n = 1
	}
	besselCache.Lock()
	defer besselCache.Unlock()
	old := besselCache.limit
	besselCache.limit = n
	pruneBesselCacheLocked()
	return old
}

// BesselCacheLen reports the number of cached tables (for tests and
// telemetry).
func BesselCacheLen() int {
	besselCache.Lock()
	defer besselCache.Unlock()
	return len(besselCache.m)
}

// pruneBesselCacheLocked evicts least-recently-used entries until the
// cache respects its limit. Caller holds the lock.
func pruneBesselCacheLocked() {
	for len(besselCache.m) > besselCache.limit {
		var oldest besselCacheKey
		first := true
		for k, e := range besselCache.m {
			if first || e.lastUse < besselCache.m[oldest].lastUse {
				oldest, first = k, false
			}
		}
		delete(besselCache.m, oldest)
	}
}

type besselCacheKey struct {
	lmax  int
	nodes int // xmax bucket expressed in nodes, so H changes miss cleanly
}

// besselXBucket rounds xmax up to a multiple of 64 so slightly different
// ranges share a table.
func besselXBucket(xmax float64) float64 {
	if xmax < 1 {
		xmax = 1
	}
	return 64.0 * math.Ceil(xmax/64.0)
}

// SharedBesselTable returns the cached table covering the multipoles ls and
// arguments [0, xmax], building (or extending) it on first use. The build
// fans out through par when non-nil. Safe for concurrent use; returned
// tables are immutable.
func SharedBesselTable(ls []int, xmax float64, par func(n int, body func(i int))) *BesselTable {
	ls = sortedUniqueLs(ls)
	lmax := 0
	if len(ls) > 0 {
		lmax = ls[len(ls)-1]
	}
	// Bucket the multipole cap too, so requests differing only in their
	// largest l share an entry (the table then simply grows rows).
	lb := 64 * int(math.Ceil(float64(lmax+1)/64.0))
	xb := besselXBucket(xmax)
	key := besselCacheKey{lmax: lb, nodes: int(math.Ceil(xb / DefaultBesselH))}

	// The lock covers only the map: a build runs outside it behind a
	// per-key in-flight entry, so a cold key stalls same-key callers that
	// need the new rows and nobody else's lookup.
	besselCache.Lock()
	for {
		besselCache.tick++
		e := besselCache.m[key]
		if e == nil {
			e = &besselCacheEntry{lastUse: besselCache.tick}
			besselCache.m[key] = e
			pruneBesselCacheLocked()
		}
		e.lastUse = besselCache.tick
		if e.t != nil && e.t.hasAll(ls) {
			besselCache.Unlock()
			return e.t
		}
		if landed := e.building; landed != nil {
			besselCache.Unlock()
			<-landed
			besselCache.Lock()
			continue
		}
		if e.t != nil {
			// Extend: rebuild with the union of the tabulated and requested
			// multipoles. Builds are cheap next to evaluation, and readers of
			// the old table are unaffected (tables are immutable).
			ls = sortedUniqueLs(append(e.t.Ls(), ls...))
		}
		landed := make(chan struct{})
		e.building = landed
		besselCache.Unlock()
		// Build at the key's bucketed cap, not the request's own lmax: the
		// backward recurrence's starting order depends on the build lmax, so
		// the low-order j_l bits would otherwise depend on which request
		// happened to build (or union-extend) the entry first. Pinning the
		// build to lb makes every row a pure function of (key, l) — the same
		// bits no matter the request history, in this process or any other
		// (the farm's cross-process bitwise contract rests on this).
		t := NewBesselTable(lb, ls, xb, DefaultBesselH, par)
		besselCache.Lock()
		e.t, e.building = t, nil
		close(landed)
		besselCache.Unlock()
		return t
	}
}

// hasAll reports whether every multipole of ls is tabulated.
func (t *BesselTable) hasAll(ls []int) bool {
	for _, l := range ls {
		if !t.Has(l) {
			return false
		}
	}
	return true
}
