package spectra

import (
	"fmt"
	"math"
	"sync"

	"plinger/internal/core"
	"plinger/internal/specfunc"
)

// The line-of-sight method (Seljak & Zaldarriaga 1996, published the year
// after this paper) replaces the brute-force hierarchy read-off by an
// integral of sources against spherical Bessel kernels. Deriving the
// projection directly from the real moment hierarchy used by this code
// (writing the Thomson source as S0 + S1 mu + S2 P2(mu) and expanding the
// free-streaming plane wave) gives, with y = k(tau0 - tau):
//
//	Theta_l(tau0) = Integral dtau {
//	    [g (Theta0 + psi) + e^-kappa (phi' + psi')] j_l(y)
//	  +  g v_b                                      j_l'(y)
//	  +  g Pi/8 * (3 j_l''(y) + j_l(y))             }
//
// where Pi = F_gamma2 + G_gamma0 + G_gamma2 (F-units, = 4 Pi_Theta) and
// v_b = theta_b/k. It needs only a short hierarchy, so it serves both as an
// independent cross-check of the brute-force method and as the cheap engine
// for the shape tests.
//
// Two code paths share the source assembly below. ThetaLOS/ClLOS evaluate
// the kernels exactly (recurrences at every quadrature point) and are the
// reference implementation; the fast engine in fastlos.go consumes the
// shared specfunc.BesselTable instead and, combined with Sweep.RefineK,
// reproduces the reference C_l to < 1e-3 at a fraction of the cost.
// Both take each mode from Sweep.mode, so they run alike on an evolved
// sweep and on a lazy RefineK sweep, and both integrate on losGrid's
// quadrature: past the visibility window a mode with k >= 0.03125 has its
// points on the Bessel table's own nodes, where the fast engine reads the
// kernels without interpolating and the reference evaluates them exactly.

// The conformal-time windows and spacings shared by the LOS quadrature
// grid and RefineK's source-representation grid: the visibility peak is
// sampled densely over [tauRec - losVisBefore, tauRec + losVisAfter], the
// opaque pre-recombination era and the free-streaming/ISW era coarsely.
// The window is core's source step cap: inside it the recorded samples are
// at most 3 Mpc apart, past it the steps are uncapped and linearly
// interpolated, so a quadrature node must sit exactly on the window end
// (see core.SourceWindowAfter for what moving it costs).
const (
	losVisBefore = core.SourceWindowBefore
	losVisAfter  = core.SourceWindowAfter
	losDtPre     = 10.0
	losDtVis     = 1.0
	losDtFree    = 12.0
	// losOscSamples is the quadrature density per Bessel oscillation
	// 2 pi / k. Convergence of Theta_l against a doubled density puts the
	// 16-point error at ~5e-5 of the peak multipole (24 points: ~2.5e-5)
	// — far inside the 1e-3 engine budget, and the free-streaming grid of
	// the largest wavenumbers is a third shorter than at 24
	// (TestLOSQuadratureConverged holds the shipped grid to 2e-5).
	losOscSamples = 16.0
	// losNodeStep is the free-streaming step in y = k(tau0 - tau) that puts
	// the quadrature on the shared Bessel table's coarse nodes: 0.375, or
	// 16.76 points per oscillation.
	losNodeStep = specfunc.BesselNodeStride * specfunc.DefaultBesselH
)

// losSeg appends an evenly spaced segment covering [lo, hi) with spacing
// at most dt.
func losSeg(grid []float64, lo, hi, dt float64) []float64 {
	if hi <= lo {
		return grid
	}
	n := int((hi-lo)/dt) + 1
	for i := 0; i < n; i++ {
		grid = append(grid, lo+(hi-lo)*float64(i)/float64(n))
	}
	return grid
}

// losSegW is losSeg with composite-Simpson quadrature weights: the segment
// [lo, hi] gets an even number of uniform intervals no wider than dt (see
// losSegN).
func losSegW(grid, w []float64, lo, hi, dt, carry float64) ([]float64, []float64, float64) {
	if hi <= lo {
		return grid, w, carry
	}
	n := int((hi-lo)/dt) + 1
	return losSegN(grid, w, lo, hi, n+n%2, carry) // Simpson needs an even interval count
}

// losSegN appends [lo, hi) in n (even) uniform intervals: weights h/3 {1,
// 4, 2, ..., 4, 1} are accumulated onto w (adding, so a shared endpoint
// between segments receives both closing and opening contributions), and
// the closing weight of the last interval is returned as carry for the next
// appended point.
func losSegN(grid, w []float64, lo, hi float64, n int, carry float64) ([]float64, []float64, float64) {
	h := (hi - lo) / float64(n)
	third := h / 3.0
	for i := 0; i < n; i++ {
		grid = append(grid, lo+(hi-lo)*float64(i)/float64(n))
		wi := carry
		carry = 0
		switch {
		case i == 0:
			wi += third
		case i%2 == 1:
			wi += 4.0 * third
		default:
			wi += 2.0 * third
		}
		w = append(w, wi)
	}
	return grid, w, third
}

// losGrid appends the integration grid in conformal time to dst and its
// quadrature weights to wdst: dense through the (narrow) visibility peak,
// elsewhere fine enough to resolve both the Bessel oscillation 2 pi/k and
// the integrated Sachs-Wolfe evolution. Weights are composite Simpson
// within each uniform segment — fourth-order, so the visibility window
// affords a coarser stride than the trapezoid rule needed at equal
// accuracy, and every consumer (reference and fast projection alike)
// inherits the same quadrature.
//
// There are five kinds of segment. Pre-recombination and the visibility
// window always come first, and a node always sits exactly on the window
// end tauRec + losVisAfter (where the recorded sources change sampling, see
// the constants). After it a slow mode, whose free-streaming spacing is set
// by losDtFree, gets one uniform segment to tau0. A mode for which the step
// nodeStep in y = k(tau0 - tau) is no coarser than that spacing
// (k >= 0.03125 at losNodeStep) instead gets its free-streaming points on
// y = m nodeStep, m even-counted down to 0 — the Bessel table's coarse
// nodes, where the fast projection needs no interpolation — reached from
// the window end by a short bridge at the ordinary spacing. iNode is the
// index of the first such point (point p >= iNode has m = len(grid)-1-p),
// len(grid) when there are none.
func losGrid(dst, wdst []float64, tauStart, tauRec, tau0, k, nodeStep float64) (grid, w []float64, iNode int) {
	// Spacing that resolves j_l(k(tau0-tau)) comfortably.
	hOsc := 2.0 * math.Pi / k / losOscSamples
	grid, w = dst[:0], wdst[:0]
	carry := 0.0
	t1 := math.Max(tauStart, tauRec-losVisBefore)
	t2 := math.Min(tauRec+losVisAfter, tau0)
	grid, w, carry = losSegW(grid, w, tauStart, t1, math.Min(losDtPre, hOsc), carry) // pre-recombination
	grid, w, carry = losSegW(grid, w, t1, t2, math.Min(losDtVis, hOsc), carry)       // visibility peak
	dtFree, dtNode := math.Min(losDtFree, hOsc), nodeStep/k
	m := 0
	if dtNode <= dtFree {
		// The largest even node count that leaves a bridge of non-zero
		// length (a thousandth of a step keeps its points distinct).
		m = 2 * int((tau0-t2)/(2*dtNode))
		if tau0-float64(m)*dtNode-t2 < 1e-3*dtNode {
			m -= 2
		}
	}
	if m >= 2 {
		tNode := tau0 - float64(m)*dtNode
		grid, w, carry = losSegW(grid, w, t2, tNode, dtFree, carry) // bridge
		iNode = len(grid)
		grid, w, carry = losSegN(grid, w, tNode, tau0, m, carry) // on the table's nodes
	} else {
		grid, w, carry = losSegW(grid, w, t2, tau0, dtFree, carry) // free streaming + ISW
	}
	grid = append(grid, tau0)
	w = append(w, carry)
	if m < 2 {
		iNode = len(grid)
	}
	return grid, w, iNode
}

// sampleSeries is one mode's line-of-sight sources, packed: the conformal
// times tau and, per time, the refineFields fields in refinePack order.
// Lookups carry a monotone cursor: the LOS resampling sweeps tau strictly
// forward, so the bracket for each query is almost always the cached one
// or its right neighbour, and the per-sample binary search of the original
// implementation disappears from the hot loop (non-monotone queries still
// fall back to bisection).
type sampleSeries struct {
	tau    []float64
	src    [][refineFields]float64
	cursor int
}

// locate returns i such that tau[i] <= tau < tau[i+1] (rightmost bracket,
// matching the original bisection), starting from the cursor.
func (ss *sampleSeries) locate(tau float64) int {
	n := len(ss.tau)
	i := ss.cursor
	if i > n-2 {
		i = n - 2
	}
	if tau >= ss.tau[i] {
		// Walk forward; monotone callers advance O(1) per query.
		for i < n-2 && tau >= ss.tau[i+1] {
			i++
		}
	} else {
		// Cursor overshot: bisect [0, i].
		lo, hi := 0, i
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if ss.tau[mid] <= tau {
				lo = mid
			} else {
				hi = mid
			}
		}
		i = lo
	}
	ss.cursor = i
	return i
}

// atInto linearly interpolates every field at tau into out, clamped to the
// end samples outside the series: RefineK's resampling of a coarse mode
// onto its shared grid.
func (ss *sampleSeries) atInto(tau float64, out *[refineFields]float64) {
	n := len(ss.tau)
	if tau <= ss.tau[0] {
		*out = ss.src[0]
		return
	}
	if tau >= ss.tau[n-1] {
		*out = ss.src[n-1]
		return
	}
	lo := ss.locate(tau)
	hi := lo + 1
	f := (tau - ss.tau[lo]) / (ss.tau[hi] - ss.tau[lo])
	a, b := &ss.src[lo], &ss.src[hi]
	for j := range out {
		out[j] = a[j]*(1-f) + b[j]*f
	}
}

// losScratch carries every buffer the LOS engine needs for one mode, so
// sweeps over hundreds of modes reuse a single allocation set instead of
// re-making per call (the benchmarks report allocs/op to keep it that way).
type losScratch struct {
	ss sampleSeries
	// The current mode's packed sources (see Sweep.mode): an evolved
	// mode's sample times are copied into tauBuf, a refined mode's times
	// are its plan's grid, borrowed.
	tauBuf           []float64
	rows             [][refineFields]float64
	grid             []float64
	srcA, srcB, srcC []float64
	psiT, eKap       []float64
	w                []float64
	jl               []float64
	theta            []float64
	// Fast-projection state: the Bessel arguments, the weight-folded
	// sources and the shared interpolation stencil.
	ys, wA, wB, wC []float64
	stencil        specfunc.BesselStencil
	// iFirst is the first index where any source is non-negligible (before
	// it e^-kappa underflows): the fast projection starts there, the exact
	// reference path always integrates the full grid. From iNode on the
	// points sit on the Bessel table's coarse nodes (see losGrid).
	iFirst, iNode int
}

// losPool keeps the per-worker scratch sets across sweeps: a daemon's next
// request starts with buffers already sized by its last.
var losPool = sync.Pool{New: func() any { return new(losScratch) }}

// putLosScratch returns sc to the pool without pinning the grid of the
// plan its last mode borrowed.
func putLosScratch(sc *losScratch) {
	sc.ss = sampleSeries{}
	losPool.Put(sc)
}

// grow resizes s to n, contents not preserved. Modes arrive in rising k and
// n rises with k, so a short buffer is replaced by one half again as large.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}

// load validates an evolved mode and packs its recorded samples into sc.
func (sc *losScratch) load(r *core.Result) ([]float64, [][refineFields]float64, error) {
	if r.Gauge != core.ConformalNewtonian {
		return nil, nil, fmt.Errorf("spectra: line of sight requires the conformal Newtonian gauge, got %v", r.Gauge)
	}
	if len(r.Sources) < 10 {
		return nil, nil, fmt.Errorf("spectra: mode k=%g has no recorded sources (set KeepSources)", r.K)
	}
	tau, rows := sc.pack(r.Sources)
	return tau, rows, nil
}

// pack copies the samples' times and line-of-sight fields into sc and
// returns them (valid until sc is next packed).
func (sc *losScratch) pack(src []core.Sample) ([]float64, [][refineFields]float64) {
	sc.tauBuf = grow(sc.tauBuf, len(src))
	sc.rows = grow(sc.rows, len(src))
	for i := range src {
		sc.tauBuf[i] = src[i].Tau
		sc.rows[i] = refinePack(&src[i])
	}
	return sc.tauBuf, sc.rows
}

// losAssemble builds the integration grid of the mode with wavenumber k
// whose packed sources are rows at times tau, and fills the three source
// arrays (monopole, dipole, quadrupole), their quadrature-weighted copies
// and the weights into the scratch. nodeStep is losGrid's: the spacing in y
// of the Bessel table nodes the free-streaming points are laid on. Two
// passes over the grid: the first interpolates the fields, exponentiates
// the optical depth and builds the sources; the second adds the ISW term
// psi' e^-kappa, folds the weights and finds each source's peak.
func losAssemble(k float64, tau []float64, rows [][refineFields]float64, tau0, tauRec, nodeStep float64, sc *losScratch) {
	ss := &sc.ss
	*ss = sampleSeries{tau: tau, src: rows}
	sc.grid, sc.w, sc.iNode = losGrid(sc.grid, sc.w, tau[0], tauRec, tau0, k, nodeStep)
	grid, w := sc.grid, sc.w

	n := len(grid)
	sc.srcA = grow(sc.srcA, n) // monopole kernel j_l
	sc.srcB = grow(sc.srcB, n) // dipole kernel j_l'
	sc.srcC = grow(sc.srcC, n) // quadrupole kernel (3 j_l'' + j_l)/2
	sc.psiT = grow(sc.psiT, n)
	sc.eKap = grow(sc.eKap, n)
	srcA, srcB, srcC, psiT, eKap := sc.srcA[:n], sc.srcB[:n], sc.srcC[:n], sc.psiT[:n], sc.eKap[:n]
	nt := len(tau)
	for i, t := range grid {
		// Linear interpolation between the bracketing samples.
		lo, f := 0, 0.0
		switch {
		case t <= tau[0]:
		case t >= tau[nt-1]:
			lo, f = nt-2, 1.0
		default:
			lo = ss.locate(t)
			f = (t - tau[lo]) / (tau[lo+1] - tau[lo])
		}
		a, b := &rows[lo], &rows[lo+1]
		g := 1.0 - f
		theta0 := g*a[fTheta0] + f*b[fTheta0]
		psi := g*a[fPsi] + f*b[fPsi]
		phiDot := g*a[fPhiDot] + f*b[fPhiDot]
		vb := g*a[fVB] + f*b[fVB]
		pi := g*a[fPi] + f*b[fPi]
		kdot := g*a[fKdot] + f*b[fKdot]
		// The opacity suppression is exponentiated from the interpolated
		// optical depth (exact for locally linear kappa; interpolating
		// e^-kappa itself would sag badly across the steep recombination
		// onset where kappa falls by e-folds between samples). Deep in the
		// opaque era e^-kappa underflows every source threshold; skip the
		// exponential outright (kappa < 60 everywhere it matters).
		var ek float64
		if kap := g*a[fKappa] + f*b[fKappa]; kap > 60 {
			ek = 0
		} else {
			ek = math.Exp(-kap)
		}
		vis := kdot * ek
		eKap[i] = ek
		psiT[i] = psi
		srcA[i] = vis*(theta0+psi) + ek*phiDot
		srcB[i] = vis * vb
		srcC[i] = vis * pi / 4.0 // Pi in Theta units; kernel carries the 1/2
	}

	// psi-dot by centred differences on the resampled series completes the
	// ISW term. The quadrature weights were built alongside the grid
	// (Simpson within each uniform segment, see losGrid); the fast
	// projection reads the sources with the weights folded in.
	sc.wA = grow(sc.wA, n)
	sc.wB = grow(sc.wB, n)
	sc.wC = grow(sc.wC, n)
	wA, wB, wC := sc.wA[:n], sc.wB[:n], sc.wC[:n]
	var maxA, maxBC float64
	for i := range grid {
		var dPsi float64
		switch i {
		case 0:
			dPsi = (psiT[1] - psiT[0]) / (grid[1] - grid[0])
		case n - 1:
			dPsi = (psiT[n-1] - psiT[n-2]) / (grid[n-1] - grid[n-2])
		default:
			dPsi = (psiT[i+1] - psiT[i-1]) / (grid[i+1] - grid[i-1])
		}
		srcA[i] += eKap[i] * dPsi
		wA[i] = w[i] * srcA[i]
		wB[i] = w[i] * srcB[i]
		wC[i] = w[i] * srcC[i]
		if a := math.Abs(srcA[i]); a > maxA {
			maxA = a
		}
		if v := math.Abs(srcB[i]); v > maxBC {
			maxBC = v
		}
		if v := math.Abs(srcC[i]); v > maxBC {
			maxBC = v
		}
	}

	// Active range (see the losScratch comment). Thresholds are relative,
	// 1e-12 of the per-source peak, so dropped terms are far below the
	// 1e-3 C_l budget.
	thrA, thrBC := 1e-12*maxA, 1e-12*maxBC
	sc.iFirst = 0
	for sc.iFirst < n-1 &&
		math.Abs(srcA[sc.iFirst]) <= thrA &&
		math.Abs(srcB[sc.iFirst]) <= thrBC &&
		math.Abs(srcC[sc.iFirst]) <= thrBC {
		sc.iFirst++
	}
}

// projectThetaExact integrates the assembled sources of one mode into
// Theta_l for l = 0..lmax, with the spherical Bessel recurrences evaluated
// at every quadrature point: the exact-kernel reference projection, on the
// quadrature grid the fast engine uses.
func projectThetaExact(k float64, lmax int, tau0 float64, sc *losScratch) []float64 {
	grid, srcA, srcB, srcC := sc.grid, sc.srcA, sc.srcB, sc.srcC

	sc.theta = grow(sc.theta, lmax+1)
	theta := sc.theta
	for l := range theta {
		theta[l] = 0
	}
	sc.jl = grow(sc.jl, lmax+2)
	jl := sc.jl
	for i, tau := range grid {
		y := k * (tau0 - tau)
		if y < 0 {
			y = 0
		}
		jl = specfunc.SphericalBesselJArray(lmax+1, y, jl)
		w := sc.w[i]
		for l := 0; l <= lmax; l++ {
			j := jl[l]
			// j_l'(y) = j_{l-1}(y) - (l+1)/y j_l(y); at y=0 only l=1 has
			// a non-zero derivative (1/3).
			var jp, jpp float64
			if y > 1e-8 {
				var jm float64
				if l > 0 {
					jm = jl[l-1]
				} else {
					jm = -jl[1] // j_{-1}' relation: j_0'(y) = -j_1(y)
				}
				if l == 0 {
					jp = -jl[1]
				} else {
					jp = jm - float64(l+1)/y*j
				}
				jpp = (float64(l*(l+1))/(y*y)-1.0)*j - 2.0/y*jp
			} else {
				if l == 1 {
					jp = 1.0 / 3.0
				}
				if l == 0 {
					jpp = -1.0 / 3.0
				}
				if l == 2 {
					jpp = 2.0 / 15.0
				}
			}
			q := 0.5 * (3.0*jpp + j)
			theta[l] += w * (srcA[i]*j + srcB[i]*jp + srcC[i]*q)
		}
	}
	return theta
}

// ThetaLOS computes Theta_l(k) for l = 0..lmax by the line-of-sight
// integral from the recorded sources of one mode (conformal Newtonian
// gauge required). This is the exact reference path; the table-driven fast
// path is ThetaLOSFast.
func ThetaLOS(r *core.Result, lmax int, tau0, tauRec float64) ([]float64, error) {
	var sc losScratch
	tau, rows, err := sc.load(r)
	if err != nil {
		return nil, err
	}
	losAssemble(r.K, tau, rows, tau0, tauRec, losNodeStep, &sc)
	return append([]float64(nil), projectThetaExact(r.K, lmax, tau0, &sc)...), nil
}

// ClLOS computes the angular power spectrum with the line-of-sight method
// from a sweep whose modes kept their sources, using the exact reference
// projection (one scratch set shared across the whole sweep). The fast
// table-driven variant is ClLOSFast.
func (s *Sweep) ClLOS(ls []int, prim Primordial, tcmb, tauRec float64) (*ClSpectrum, error) {
	lmax := 0
	for _, l := range ls {
		if l > lmax {
			lmax = l
		}
	}
	out := &ClSpectrum{L: append([]int(nil), ls...), Cl: make([]float64, len(ls)), TCMB: tcmb}
	var sc losScratch
	for i := range s.KValues {
		k := s.KValues[i]
		tau, rows, err := s.mode(i, &sc)
		if err != nil {
			return nil, err
		}
		losAssemble(k, tau, rows, s.Tau0, tauRec, losNodeStep, &sc)
		theta := projectThetaExact(k, lmax, s.Tau0, &sc)
		w := trapWeight(s.KValues, i)
		for j, l := range ls {
			out.Cl[j] += 4.0 * math.Pi * w * prim.At(k) * theta[l] * theta[l] / k
		}
	}
	return out, nil
}
