package spectra

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"plinger/internal/core"
	"plinger/internal/dispatch"
)

// RefineK is the CMBFAST-style coarse-to-fine wavenumber pipeline: the
// expensive ODE evolutions are done only on this sweep's (coarse) k grid,
// and the recorded line-of-sight sources — which, unlike Theta_l(k), vary
// slowly with k — are resampled onto a shared conformal-time grid and
// cubic-splined in k onto a uniform grid of nkFine wavenumbers spanning the
// same range. tauRec (the visibility peak) shapes the shared grid exactly
// as it shapes the per-mode LOS quadrature grid.
//
// The refined Sweep is lazy. RefineK builds only the plan — the shared
// grid, the coarse fields on it and their k-spline second derivatives, in
// two parallel loops — and ClLOS/ClLOSFast reach a mode through Sweep.mode,
// which evaluates the splines into the calling worker's scratch: coarse
// sources -> Theta_l(k) is one pass, parallel over fine wavenumbers, that
// never holds an nkFine x ntau array. Results is nil on a refined sweep:
// only line-of-sight sources are interpolated (the hierarchy read-off
// Theta_l oscillates rapidly in k), and the read-off consumers refuse it.
//
// Modes enter the evolution at k tau = const, so each wavenumber's sources
// begin at tau_start(k) = C/k: the shared grid starts at the earliest
// coarse start, every fine mode is truncated to its own tau_start, and
// each time sample is splined only across the coarse modes that have begun
// by then — exactly mirroring what a full fine-grid evolution would
// record.
func (s *Sweep) RefineK(nkFine int, tauRec float64) (*Sweep, error) {
	nc := len(s.KValues)
	if nc < 4 {
		return nil, fmt.Errorf("spectra: RefineK needs at least 4 coarse modes, got %d", nc)
	}
	if nkFine <= nc {
		return nil, fmt.Errorf("spectra: RefineK target %d not finer than the %d-mode sweep", nkFine, nc)
	}
	for i := 1; i < nc; i++ {
		if s.KValues[i] <= s.KValues[i-1] {
			return nil, fmt.Errorf("spectra: RefineK needs a strictly increasing k grid")
		}
	}
	if s.plan != nil {
		return nil, errReadOff
	}
	starts := make([]float64, nc)
	base := 0
	for i, r := range s.Results {
		if r == nil || r.Gauge != core.ConformalNewtonian {
			return nil, fmt.Errorf("spectra: RefineK requires conformal Newtonian modes with sources")
		}
		if len(r.Sources) < 10 {
			return nil, fmt.Errorf("spectra: mode k=%g has no recorded sources (set KeepSources)", s.KValues[i])
		}
		starts[i] = r.Sources[0].Tau
		if starts[i] < starts[base] {
			base = i
		}
	}

	// Shared conformal-time grid, from the earliest coarse start (the
	// largest k enters first). Unlike the per-mode LOS quadrature grid it
	// only has to represent the sources — dense through the visibility
	// peak, moderate elsewhere — because every consumer rebuilds its own
	// oscillation-resolving quadrature grid from these samples.
	tau0 := s.Tau0
	grid := sourceGrid(starts[base], tauRec, tau0)
	nt := len(grid)
	eps := 1e-9 * tau0
	const nf = refineFields
	p := &refinePlan{
		kc: s.KValues, grid: grid, c0: make([]int, nt), fineT0: make([]int, nkFine),
		y: make([]float64, nc*nt*nf), y2: make([]float64, nc*nt*nf),
	}

	// The interpolated source fields, resampled per coarse mode onto the
	// shared grid (entries before a mode's start are clamped to its first
	// sample and never used by the splines). Only the fields the
	// line-of-sight integrand consumes are interpolated. The opacity
	// history (Kdot, Kappa) is physically k-independent, but each mode
	// records it at its own adaptive step times and the reference
	// projection integrates exactly that per-mode piecewise resampling —
	// so it is interpolated in k like the perturbations, which keeps the
	// refined sweep consistent with a true full fine-grid run.
	dispatch.ParallelFor(0, nc, func(c int) {
		sc := losPool.Get().(*losScratch)
		defer putLosScratch(sc)
		tau, rows := sc.pack(s.Results[c].Sources)
		ss := sampleSeries{tau: tau, src: rows}
		for t, tau := range grid {
			ss.atInto(tau, (*[nf]float64)(p.y[(c*nt+t)*nf:]))
		}
	})

	// Each time sample is splined over the coarse modes that have begun by
	// then: a suffix kc[c0[t]:] of the k grid (start falls with k) that
	// grows downward as tau advances.
	c0 := nc - 1
	for t, tau := range grid {
		for c0 > 0 && starts[c0-1] <= tau+eps {
			c0--
		}
		p.c0[t] = c0
	}
	p.fit()

	// Uniform fine grid over the same span; each fine mode starts where a
	// real evolution would: at k tau = C (from the earliest-starting
	// coarse mode, which is never capped), but no later than the
	// radiation-era cap that every small-k coarse mode exhibits.
	ksFine := make([]float64, nkFine)
	k0, k1 := s.KValues[0], s.KValues[nc-1]
	for i := range ksFine {
		ksFine[i] = k0 + (k1-k0)*float64(i)/float64(nkFine-1)
	}
	cStart, tCap := s.KValues[base]*starts[base], slices.Max(starts)
	for i := range p.fineT0 {
		tStart := math.Min(cStart/ksFine[i], tCap)
		t0 := 0
		for t0 < nt-1 && grid[t0] < tStart-eps {
			t0++
		}
		p.fineT0[i] = t0
	}
	return &Sweep{KValues: ksFine, Tau0: tau0, plan: p}, nil
}

// errReadOff is what the consumers of evolved results — the hierarchy
// read-off, the matter transfer, RefineK itself — answer on a refined sweep.
var errReadOff = errors.New("spectra: a RefineK sweep carries line-of-sight sources only, no evolved results")

// The source fields the line-of-sight integrand consumes, packed in this
// order: a mode's samples, RefineK's coarse fields and their k-splines, and
// every fine mode the projection assembles.
const (
	fKdot = iota
	fKappa
	fTheta0
	fPsi
	fPhiDot
	fVB
	fPi
	// refineFields is the number of packed fields.
	refineFields
)

// refinePack packs one recorded sample's line-of-sight fields.
func refinePack(s *core.Sample) [refineFields]float64 {
	return [refineFields]float64{fKdot: s.Kdot, fKappa: s.Kappa, fTheta0: s.Theta0, fPsi: s.Psi, fPhiDot: s.PhiDot, fVB: s.VB, fPi: s.Pi}
}

// refinePlan is everything a refined sweep's modes are evaluated from.
// The field arrays are mode-major, [c][t][field] flat: a fine mode walks
// its two bracketing coarse rows contiguously in t, and the fine modes of
// one coarse interval share those rows.
type refinePlan struct {
	kc     []float64 // coarse wavenumbers
	grid   []float64 // shared conformal-time grid
	y, y2  []float64 // coarse fields and their k-spline second derivatives
	c0     []int     // per grid time: the splines' first knot, kc[c0[t]:]
	fineT0 []int     // per fine mode: first grid index
}

// fit solves, at every grid time, the natural-spline tridiagonal system of
// every field over the knots kc[c0[t]:] — spline.Multi.Fit's arithmetic
// operation for operation, on the mode-major layout, in parallel blocks of
// grid times. The knot-spacing factors depend on the coarse grid alone;
// only the first knot moves with time.
func (p *refinePlan) fit() {
	const nf = refineFields
	x := p.kc
	nc, nt := len(x), len(p.grid)
	sig, invH1, invH0, inv01 := make([]float64, nc), make([]float64, nc), make([]float64, nc), make([]float64, nc)
	for c := 1; c < nc-1; c++ {
		sig[c] = (x[c] - x[c-1]) / (x[c+1] - x[c-1])
		invH1[c] = 1.0 / (x[c+1] - x[c])
		invH0[c] = 1.0 / (x[c] - x[c-1])
		inv01[c] = 6.0 / (x[c+1] - x[c-1])
	}
	y, y2, u := p.y, p.y2, make([]float64, len(p.y2))
	const block = 16
	dispatch.ParallelFor(0, (nt+block-1)/block, func(b int) {
		tlo, thi := b*block, min((b+1)*block, nt)
		for c := 0; c < nc-1; c++ { // decomposition, knot by knot; y2[nc-1] stays 0
			for t := tlo; t < thi; t++ {
				if c <= p.c0[t] {
					continue // before the first knot, or on it: y2 = u = 0
				}
				row := (c*nt + t) * nf
				prev, next := row-nt*nf, row+nt*nf
				for f := 0; f < nf; f++ {
					pp := sig[c]*y2[prev+f] + 2.0
					y2[row+f] = (sig[c] - 1.0) / pp
					d := (y[next+f]-y[row+f])*invH1[c] - (y[row+f]-y[prev+f])*invH0[c]
					u[row+f] = (d*inv01[c] - sig[c]*u[prev+f]) / pp
				}
			}
		}
		for c := nc - 2; c >= 0; c-- { // back-substitution
			for t := tlo; t < thi; t++ {
				if c < p.c0[t] {
					continue
				}
				row := (c*nt + t) * nf
				next := row + nt*nf
				for f := 0; f < nf; f++ {
					y2[row+f] = y2[row+f]*y2[next+f] + u[row+f]
				}
			}
		}
	})
}

// evalInto evaluates fine mode i (wavenumber k) from the plan into rows,
// one packed row per grid time from the mode's start, grid[fineT0[i]:];
// rows is grown as needed and returned. It is spline.Multi.EvalHint's
// arithmetic at every grid time, the bracket found once per mode (it moves
// only while the splines' first knot is still above it).
func (p *refinePlan) evalInto(i int, k float64, rows [][refineFields]float64) [][refineFields]float64 {
	const nf = refineFields
	x := p.kc
	nc, nt := len(x), len(p.grid)
	t0 := p.fineT0[i]
	if cap(rows) < nt-t0 {
		rows = make([][nf]float64, nt) // the longest any mode needs
	}
	rows = rows[:nt-t0]
	j := sort.SearchFloat64s(x, k) // largest j <= nc-2 with x[j] <= k, else 0
	if j == nc || x[j] != k {
		j--
	}
	j = max(0, min(j, nc-2))
	cur := -1
	var a, b, w2a, w2b float64
	for t := t0; t < nt; t++ {
		v := &rows[t-t0]
		c0 := p.c0[t]
		if nc-c0 < 2 {
			// One started mode: nothing to spline.
			*v = *(*[nf]float64)(p.y[(c0*nt+t)*nf:])
			continue
		}
		// Below the first knot the boundary cubic extrapolates.
		jj := max(j, c0)
		if jj != cur {
			cur = jj
			h := x[jj+1] - x[jj]
			a = (x[jj+1] - k) / h
			b = (k - x[jj]) / h
			w2a = (a*a*a - a) * (h * h) / 6.0
			w2b = (b*b*b - b) * (h * h) / 6.0
		}
		lo := (jj*nt + t) * nf
		hi := lo + nt*nf
		y0, y1 := (*[nf]float64)(p.y[lo:]), (*[nf]float64)(p.y[hi:])
		z0, z1 := (*[nf]float64)(p.y2[lo:]), (*[nf]float64)(p.y2[hi:])
		// Field by field, spelled out: a loop over seven is not unrolled.
		v[0] = a*y0[0] + b*y1[0] + w2a*z0[0] + w2b*z1[0]
		v[1] = a*y0[1] + b*y1[1] + w2a*z0[1] + w2b*z1[1]
		v[2] = a*y0[2] + b*y1[2] + w2a*z0[2] + w2b*z1[2]
		v[3] = a*y0[3] + b*y1[3] + w2a*z0[3] + w2b*z1[3]
		v[4] = a*y0[4] + b*y1[4] + w2a*z0[4] + w2b*z1[4]
		v[5] = a*y0[5] + b*y1[5] + w2a*z0[5] + w2b*z1[5]
		v[6] = a*y0[6] + b*y1[6] + w2a*z0[6] + w2b*z1[6]
	}
	return rows
}

// mode returns mode i's packed line-of-sight sources, its times and rows,
// for the line-of-sight consumers: the evolved result's samples packed into
// sc, or on a refined sweep the plan's k-splines evaluated into sc on the
// plan's own grid, which the times borrow. Both are valid until sc is next
// used.
func (s *Sweep) mode(i int, sc *losScratch) ([]float64, [][refineFields]float64, error) {
	p := s.plan
	if p == nil {
		return sc.load(s.Results[i])
	}
	sc.rows = p.evalInto(i, s.KValues[i], sc.rows)
	return p.grid[p.fineT0[i]:], sc.rows, nil
}

// sourceStart returns the conformal time of mode i's first source sample.
func (s *Sweep) sourceStart(i int) (float64, bool) {
	if p := s.plan; p != nil {
		return p.grid[p.fineT0[i]], true
	}
	if r := s.Results[i]; r != nil && len(r.Sources) > 0 {
		return r.Sources[0].Tau, true
	}
	return 0, false
}

// sourceGrid is the shared conformal-time sampling of RefineK: the same
// visibility window and dense-peak spacing as the LOS quadrature grid
// (losGrid's constants), but a doubled free-streaming stride — it only has
// to represent the slowly varying sources, not resolve the Bessel
// oscillation, which is the per-mode quadrature grid's job when it is
// rebuilt from these samples.
func sourceGrid(tauStart, tauRec, tau0 float64) []float64 {
	var grid []float64
	t1 := math.Max(tauStart, tauRec-losVisBefore)
	t2 := math.Min(tauRec+losVisAfter, tau0)
	grid = losSeg(grid, tauStart, t1, losDtPre)
	grid = losSeg(grid, t1, t2, losDtVis)
	grid = losSeg(grid, t2, tau0, 2.0*losDtFree)
	grid = append(grid, tau0)
	return grid
}

// SafeKRefine caps a requested refinement factor so the coarse grid still
// resolves the acoustic oscillation of the sources in k: at fixed tau the
// sources oscillate with period ~ 2 pi sqrt(3)/tauRec (the inverse sound
// horizon at recombination), and the cubic k splines need ~16 points per
// period. Requests beyond that cap would push interpolation errors past
// the 1e-3 engine budget, so they are clamped rather than honoured.
func SafeKRefine(kRefine, nk int, kmin, kmax, tauRec float64) int {
	if kRefine <= 1 || nk < 2 || tauRec <= 0 || kmax <= kmin {
		return kRefine
	}
	maxSpacing := 2.0 * math.Pi * math.Sqrt(3.0) / 16.0 / tauRec
	span := kmax - kmin
	if spacing := span * float64(kRefine) / float64(nk); spacing > maxSpacing {
		kRefine = int(maxSpacing * float64(nk) / span)
		if kRefine < 1 {
			kRefine = 1
		}
	}
	return kRefine
}

// RefineCoarseGrid builds the coarse evolution grid for a RefineK run
// targeting the fine grid ks: every kRefine-th fine wavenumber (endpoints
// always included), densified logarithmically across the lowest coarse
// interval. The densification matters because modes enter the evolution at
// k tau = const: across the lowest decade of k the entry time sweeps
// through recombination, the sources' k-validity boundary moves, and a
// single wide interval there would force the k splines to extrapolate.
// The extra wavenumbers are the cheapest in the sweep (slow dynamics,
// few integrator steps), so they cost almost nothing next to the
// (nkFine/kRefine)x evolution saving.
func RefineCoarseGrid(ks []float64, kRefine int) []float64 {
	n := len(ks)
	if kRefine <= 1 || n < 2 {
		return append([]float64(nil), ks...)
	}
	idx := map[int]bool{0: true, n - 1: true}
	for i := 0; i < n; i += kRefine {
		idx[i] = true
	}
	// Half-spacing through the first two uniform intervals above the log
	// head: the lowest multipoles peak exactly there (k ~ l/tau0 just past
	// the head) and their C_l budget needs the extra source resolution.
	for _, i := range []int{kRefine + (kRefine+1)/2, 2*kRefine + (kRefine+1)/2} {
		if i < n {
			idx[i] = true
		}
	}
	coarse := make([]float64, 0, len(idx))
	for i := 0; i < n; i++ {
		if idx[i] {
			coarse = append(coarse, ks[i])
		}
	}
	// Log-spaced head across the first coarse interval.
	lo := ks[0]
	hi := ks[min(kRefine, n-1)]
	if lo > 0 && hi > lo*1.5 {
		const nLog = 22
		ratio := hi / lo
		head := make([]float64, 0, nLog-1)
		for j := 1; j < nLog; j++ {
			v := lo * math.Pow(ratio, float64(j)/nLog)
			if v > lo*1.0000001 && v < hi*0.9999999 {
				head = append(head, v)
			}
		}
		merged := make([]float64, 0, len(coarse)+len(head))
		merged = append(merged, coarse[0])
		merged = append(merged, head...)
		merged = append(merged, coarse[1:]...)
		coarse = merged
	}
	return coarse
}
