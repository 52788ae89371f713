package spectra

import (
	"fmt"
	"math"
	"sort"

	"plinger/internal/core"
	"plinger/internal/dispatch"
	"plinger/internal/specfunc"
)

// The fast C_l engine: the same line-of-sight integral as ThetaLOS, but
// with the three Bessel kernels read from the process-shared
// specfunc.BesselTable instead of regenerated by recurrence at every
// (tau, l) quadrature point, the multipole loop restricted to the
// requested ls, and each l's tau range truncated where the kernel is
// negligible (j_l dies exponentially below its turning point x ~ l, so a
// small-k mode contributes nothing to a large l and the loop skips it
// outright). Four fifths of a paper-scale mode's quadrature points lie in
// the free-streaming era, and losGrid lays those on the table's coarse
// nodes: there the kernels are read as stored, from contiguous memory
// (specfunc.AccumNodes4), and only the stretch up to the end of the
// visibility window pays the cubic interpolation. Together with
// Sweep.RefineK — evolve the ODEs on a coarse k grid only and spline the
// slowly varying sources onto the fine quadrature grid — this is the
// CMBFAST recipe that cuts the production cost by an order of magnitude
// while tracking the reference path to < 1e-3.
//
// After the coarse evolution the pipeline is two steps. RefineK builds the
// refinement plan (the facade's "source_spline" span). ClLOSFast is then
// one parallel loop over blocks of modeBlock fine wavenumbers (the
// "project" span), each block on one worker's pooled scratch sets from
// start to finish: evaluate each mode's seven source fields from the plan
// into packed rows (Sweep.mode), assemble the LOS source arrays on its
// quadrature grid (losAssemble), then project the block four Bessel rows,
// two row pairs of the table, per pass on the SSE2 kernels
// (projectBlock). Only the modes' rows of Theta_l(k) outlive the
// iteration, and the k quadrature that follows is serial, so C_l is the
// same bits at every worker count.

// besselPar adapts the dispatch subsystem's ParallelFor to the Bessel
// table build hook (table rows are built in parallel like any other
// embarrassingly parallel sweep).
func besselPar(n int, body func(i int)) { dispatch.ParallelFor(0, n, body) }

// PrewarmBesselTable builds (or reuses) the shared kernel table covering
// multipoles ls and arguments up to kmax*tau0. The facade runs it through
// dispatch.StartPrebuild, concurrently with the coarse sweep, so the table
// is ready when projection starts.
func PrewarmBesselTable(ls []int, kmax, tau0 float64) *specfunc.BesselTable {
	return specfunc.SharedBesselTable(ls, kmax*tau0, besselPar)
}

// losXmax returns the largest Bessel argument the sweep's projection will
// request.
func (s *Sweep) losXmax() float64 {
	xmax := 0.0
	for i, k := range s.KValues {
		if start, ok := s.sourceStart(i); ok {
			xmax = math.Max(xmax, k*(s.Tau0-start))
		}
	}
	return xmax
}

// sharedLadder returns the shared kernel table covering the multipoles ls
// up to argument xmax, and its rows aligned with ls, fetched once per
// projection.
func sharedLadder(ls []int, xmax float64) (*specfunc.BesselTable, []specfunc.BesselRow, error) {
	tbl := specfunc.SharedBesselTable(ls, xmax, besselPar)
	rows := make([]specfunc.BesselRow, len(ls))
	for j, l := range ls {
		row, ok := tbl.Row(l)
		if !ok {
			return nil, nil, fmt.Errorf("spectra: multipole %d missing from the Bessel table", l)
		}
		rows[j] = row
	}
	return tbl, rows, nil
}

// modeBlock is how many fine modes a ClLOSFast worker assembles before it
// projects them together. projectBlock walks the ladder four rows at a
// time and, for each group, every mode of the block, so the group's two
// row pairs — ~300 KB of coarse nodes at paper scale, beyond a core's
// cache once every pair has streamed through — are read from memory once
// per block instead of once per mode. Each mode's sums are the same calls
// on the same data either way, so the bits do not depend on the block.
const modeBlock = 4

// projectThetaTable integrates the assembled sources of one mode against
// the tabulated kernels of the multipole ladder rows, writing theta[j] for
// rows[j] into out: projectBlock on a block of one.
func projectThetaTable(k, tau0 float64, sc *losScratch, rows []specfunc.BesselRow, tbl *specfunc.BesselTable, out []float64) {
	projectBlock([]float64{k}, tau0, []*losScratch{sc}, rows, tbl, [][]float64{out})
}

// projectBlock integrates the assembled sources of the modes with
// wavenumbers ks, each in its scratch scs[m], against the tabulated kernels
// of the multipole ladder rows, writing theta[j] for rows[j] into outs[m].
// The inner loops are allocation-free and run over two index ranges. Up to
// sc.iNode the kernels are interpolated: the stencil (node offset + four
// cubic weights per quadrature point) is computed once per mode and shared
// by every multipole and all three kernels (specfunc.AccumStencil4). From
// sc.iNode on the points sit on the table's coarse nodes and the kernels
// are read as stored (specfunc.AccumNodes4). Both read the sources with the
// quadrature weights folded in (losAssemble), each l truncates its tau
// range at the kernel turning point, and the ladder is walked four rows —
// two row pairs of the table — per pass, so the per-point loads are paid
// once for four sums, each of which still adds its terms in grid order.
func projectBlock(ks []float64, tau0 float64, scs []*losScratch, rows []specfunc.BesselRow, tbl *specfunc.BesselTable, outs [][]float64) {
	for m, sc := range scs {
		// Stencil at y = k (tau0 - tau) where the kernels are interpolated.
		sc.ys = grow(sc.ys, sc.iNode)
		for i := range sc.ys {
			sc.ys[i] = ks[m] * (tau0 - sc.grid[i])
		}
		tbl.Stencil(sc.ys, &sc.stencil)
	}
	for j := 0; j < len(rows); j += 4 {
		group := rows[j:min(j+4, len(rows))]
		for m, sc := range scs {
			projectGroup(ks[m], tau0, sc, group, outs[m][j:])
		}
	}
}

// projectGroup projects one mode against up to four ladder rows, writing
// theta[r] for group[r] into out.
func projectGroup(k, tau0 float64, sc *losScratch, group []specfunc.BesselRow, out []float64) {
	grid := sc.grid
	n, iNode := len(grid), sc.iNode
	// end returns where the integral of a row with that XLow stops: y
	// decreases along the grid; keep only the prefix with y >= XLow (beyond
	// it the kernels are < 1e-9 of their peak and contribute nothing at the
	// 1e-3 C_l budget). Point p >= iNode sits on coarse node n-1-p.
	end := func(xlow float64) int {
		if xlow > 0 {
			return sort.SearchFloat64s(grid, tau0-xlow/k)
		}
		return n
	}
	if len(group) == 4 {
		four := (*[4]specfunc.BesselRow)(group)
		var iEnd, iMid [4]int
		for r := range four {
			iEnd[r] = end(four[r].XLow)
			iMid[r] = min(iEnd[r], iNode)
		}
		sums := specfunc.AccumStencil4(four, &sc.stencil, sc.iFirst, &iMid, sc.wA, sc.wB, sc.wC)
		onNodes := specfunc.AccumNodes4(four, n-1-iNode, iNode, &iEnd, sc.wA, sc.wB, sc.wC)
		for r := range four {
			out[r] = sums[r] + onNodes[r]
		}
		return
	}
	for r, row := range group {
		iEnd := end(row.XLow)
		out[r] = row.AccumStencil(&sc.stencil, sc.iFirst, min(iEnd, iNode), sc.wA, sc.wB, sc.wC) +
			row.AccumNodes(n-1-iNode, iNode, iEnd, sc.wA, sc.wB, sc.wC)
	}
}

// ThetaLOSFast computes Theta_l(k) at exactly the multipoles ls by the
// table-driven line-of-sight projection; the result is aligned with ls.
// It shares the cached kernel table, so repeated calls with the same
// multipole set pay only the projection.
func ThetaLOSFast(r *core.Result, ls []int, tau0, tauRec float64) ([]float64, error) {
	var sc losScratch
	tau, src, err := sc.load(r)
	if err != nil {
		return nil, err
	}
	tbl, rows, err := sharedLadder(ls, r.K*(tau0-tau[0]))
	if err != nil {
		return nil, err
	}
	losAssemble(r.K, tau, src, tau0, tauRec, tbl.H*specfunc.BesselNodeStride, &sc)
	out := make([]float64, len(ls))
	projectThetaTable(r.K, tau0, &sc, rows, tbl, out)
	return out, nil
}

// ClLOSFast computes the angular power spectrum by the fast table-driven
// line-of-sight engine. The quadrature over k and the source assembly are
// identical to ClLOS — only the kernel evaluation differs (cubic table
// interpolation, requested multipoles only, turning-point truncation) —
// so it tracks the reference to well below the 1e-3 accuracy budget.
// Blocks of modes run in parallel through the dispatch subsystem, each end
// to end on one worker's scratch sets: on a refined sweep a mode's sources
// are evaluated from the RefineK plan there (Sweep.mode), assembled and
// projected before the next block overwrites them.
func (s *Sweep) ClLOSFast(ls []int, prim Primordial, tcmb, tauRec float64) (*ClSpectrum, error) {
	if len(s.KValues) == 0 {
		return nil, fmt.Errorf("spectra: empty sweep")
	}
	tbl, rows, err := sharedLadder(ls, s.losXmax())
	if err != nil {
		return nil, err
	}

	nk, nl := len(s.KValues), len(ls)
	nodeStep := tbl.H * specfunc.BesselNodeStride
	thetas := make([]float64, nk*nl)
	errs := make([]error, nk)
	dispatch.ParallelFor(0, (nk+modeBlock-1)/modeBlock, func(b int) {
		lo, hi := b*modeBlock, min((b+1)*modeBlock, nk)
		var scs [modeBlock]*losScratch
		var outs [modeBlock][]float64
		defer func() {
			for _, sc := range scs {
				if sc != nil {
					putLosScratch(sc)
				}
			}
		}()
		for i := lo; i < hi; i++ {
			sc := losPool.Get().(*losScratch)
			scs[i-lo] = sc
			tau, src, err := s.mode(i, sc)
			if errs[i] = err; err != nil {
				return
			}
			losAssemble(s.KValues[i], tau, src, s.Tau0, tauRec, nodeStep, sc)
			outs[i-lo] = thetas[i*nl : (i+1)*nl]
		}
		projectBlock(s.KValues[lo:hi], s.Tau0, scs[:hi-lo], rows, tbl, outs[:hi-lo])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := &ClSpectrum{L: append([]int(nil), ls...), Cl: make([]float64, nl), TCMB: tcmb}
	for i := range s.KValues {
		k := s.KValues[i]
		w := trapWeight(s.KValues, i)
		pk := prim.At(k)
		for j := range ls {
			th := thetas[i*nl+j]
			out.Cl[j] += 4.0 * math.Pi * w * pk * th * th / k
		}
	}
	return out, nil
}
