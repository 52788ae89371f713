package core

import (
	"fmt"
	"math"
	"time"

	"plinger/internal/cosmology"
	"plinger/internal/ode"
)

// bgPoint is one shared background/thermodynamics evaluation, cached per
// right-hand-side call of a lockstep batch. Validity is keyed on the exact
// scale factor: a member whose state carries a different a simply misses
// and performs its own lookup (see gatherSums).
type bgPoint struct {
	a  float64
	g  cosmology.Grho
	th tabThermo
	// kappa is the optical depth, filled only by the per-step recorder
	// (kapOK marks it live): right-hand-side evaluations never need it.
	kappa float64
	kapOK bool
}

// batch is the in-flight state of one lockstep multi-k evolution: the
// member modes share a single concatenated state vector (member i occupies
// y[i*nvar:(i+1)*nvar], every member at the same hierarchy cutoff), one
// adaptive controller, and one background evaluation per right-hand-side
// call. The member layout keeps each mode's hierarchy loops contiguous —
// the amortized work is the background/thermodynamics lookup and the step
// machinery, which are k-independent and therefore identical across the
// batch.
type batch struct {
	ms   []mode
	nvar int // per-member state size at the current cutoff
	ref  int // index of the largest-k member: drives TCA, growth, shrink
	bg   bgPoint
	sc   *Scratch
}

// EvolveBatch is EvolveBatchWith with a private arena.
func (mdl *Model) EvolveBatch(ks []float64, p Params) ([]*Result, error) {
	return mdl.EvolveBatchWith(ks, p, nil, nil)
}

// EvolveBatchWith integrates the k modes ks in lockstep as one ODE system
// using the caller's arena (nil: a private one): every member takes the
// same accepted steps, so the background and thermodynamics lookups — and
// the controller overhead — are paid once per step for the whole batch
// instead of once per mode. perkLMax, when non-nil, carries the per-mode
// hierarchy cutoffs (entries <= 0 meaning p.LMax); the batch runs at the
// largest cutoff among its members, and every Result reports that unified
// cutoff. The shared step control couples the members numerically: a batch
// trajectory agrees with the per-mode one to the integrator tolerance, not
// bitwise — callers needing the exact per-mode trajectory use KBatch = 1.
//
// Tight coupling is driven by the largest-k member (its criterion
// kappa-dot > TCAFactor*k is the strictest in the batch), so smaller
// members release early — always physically valid, the exact equations
// merely cost more steps. Hierarchy growth and the late-time shrink follow
// the largest-k member for the same reason; the streaming switch, whose
// premise is k*tau >> 1, waits for the smallest-k member. This is a thin
// wrapper over the one driver, evolveBlock, and so is EvolveWith: a batch
// of one IS the single-mode evolution. A caller-supplied Integrator is built
// for one mode's system, so it takes the members as blocks of one, in turn.
func (mdl *Model) EvolveBatchWith(ks []float64, p Params, perkLMax []int, sc *Scratch) ([]*Result, error) {
	nb := len(ks)
	if nb == 0 {
		return nil, fmt.Errorf("core: empty k batch")
	}
	if perkLMax != nil && len(perkLMax) != nb {
		return nil, fmt.Errorf("core: %d k values but %d per-k cutoffs", nb, len(perkLMax))
	}
	step := nb
	if p.Integrator != nil {
		step = 1
	}
	results := make([]*Result, nb)
	for lo := 0; lo < nb; lo += step {
		var perk []int
		if perkLMax != nil {
			perk = perkLMax[lo : lo+step]
		}
		if err := mdl.evolveBlock(ks[lo:lo+step], p, perk, sc, results[lo:lo+step]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// blockName names a block in error texts: a block of one by its wavenumber.
func blockName(ks []float64) string {
	if len(ks) == 1 {
		return fmt.Sprintf("k=%g", ks[0])
	}
	return fmt.Sprintf("batch k=%g..%g", ks[0], ks[len(ks)-1])
}

// evolveBlock is the evolution driver under EvolveWith and EvolveBatchWith:
// the modes ks as one lockstep system, one Result per member into results.
func (mdl *Model) evolveBlock(ks []float64, p Params, perkLMax []int, sc *Scratch, results []*Result) error {
	nb := len(ks)
	if sc == nil {
		sc = &Scratch{}
	}
	if perkLMax != nil {
		// Unified hierarchy cutoff: the largest member cap covers the block.
		lcap := 0
		for _, l := range perkLMax {
			if l <= 0 {
				l = p.LMax
			}
			lcap = max(lcap, l)
		}
		p.LMax = lcap
	}
	p.setDefaults()
	if p.TauEnd <= 0 {
		p.TauEnd = mdl.BG.Tau0()
	}
	if p.TauEnd > mdl.BG.Tau0()*1.0000001 {
		return fmt.Errorf("core: TauEnd = %g beyond the present %g", p.TauEnd, mdl.BG.Tau0())
	}
	b := &sc.bat
	b.sc = sc
	if cap(b.ms) < nb {
		b.ms = make([]mode, nb)
	}
	b.ms = b.ms[:nb]
	if sc.rhsf == nil {
		sc.rhsf = b.rhs
		sc.onRecord = b.record
		sc.onMonitor = b.monitor
	}
	var tab *EvalTables
	if p.FastEvolve && !p.noTables {
		// Shared per-model tables; sweeps prebuild them in parallel via
		// the dispatcher, a cold single mode builds serially here.
		tab = mdl.EnsureEvalTables(nil)
	}

	b.ref = 0
	kmin := ks[0]
	tauStart := math.Inf(1)
	for i := range b.ms {
		if ks[i] <= 0 {
			return fmt.Errorf("core: k = %g must be positive", ks[i])
		}
		m := &b.ms[i]
		p.K = ks[i]
		*m = mode{Model: mdl, p: p, k: ks[i], k2: ks[i] * ks[i], sc: sc, tab: tab, bgCache: &b.bg}
		if ks[i] > ks[b.ref] {
			b.ref = i
		}
		kmin = min(kmin, ks[i])
		if t := m.startTime(); t < tauStart {
			tauStart = t
		}
	}
	if tauStart >= p.TauEnd {
		return fmt.Errorf("core: start time %g is not before end time %g (%s)", tauStart, p.TauEnd, blockName(ks))
	}
	ref := &b.ms[b.ref]
	lmax0 := p.LMax
	if p.FastEvolve && !p.noGrowLMax {
		ref.grow = true
		lmax0 = ref.initialLMax(tauStart)
	}
	for i := range b.ms {
		m := &b.ms[i]
		m.lmax = lmax0
		m.layout()
	}
	b.nvar = ref.nvar
	y := sc.stateBuf(nb*b.nvar, nb*ref.maxNvar())
	for i := range b.ms {
		b.ms[i].initialConditions(tauStart, y[i*b.nvar:(i+1)*b.nvar])
		if p.KeepSources {
			b.ms[i].sources = sc.sourceBuf()
		}
	}

	integ := p.Integrator
	if integ == nil {
		dv := sc.integrator(p.RTol, p.ATol)
		dv.InitialStep = tauStart * 1e-3
		// The run is integrated in segments (tight-coupling switch, window
		// edges, hierarchy growth); carrying the controller step across them
		// avoids a fresh ramp-up from the tiny initial step at each boundary.
		dv.CarryStep = true
		if p.FastEvolve && !p.noPI {
			dv.PI = true
		}
		integ = dv
	}
	if ad, ok := integ.(*ode.Adaptive); ok && p.KeepSources {
		// Source fidelity: cap the step through the visibility window (and
		// loosely beyond it) so the recorded samples resolve the peak. The
		// integrator's own MaxStep is restored on every exit path: a
		// caller-supplied Adaptive must not come back with the window cap.
		ref.ad = ad
		tauRec := mdl.TH.TauRec()
		ref.srcCap.lo = tauRec - SourceWindowBefore
		ref.srcCap.hi = tauRec + SourceWindowAfter
		ref.srcCap.h = srcCapStep
		ref.srcCap.base = ad.MaxStep
		defer func() { ad.MaxStep = ref.srcCap.base }()
	}
	ref.planLateStops(kmin)
	if obs, ok := integ.(ode.StepObserver); !ok && p.KeepSources {
		// Without the observer the sources would silently stay empty.
		return fmt.Errorf("core: KeepSources requires an integrator implementing ode.StepObserver (%s does not)", integ.Name())
	} else if ok && p.KeepSources {
		obs.SetOnStep(sc.onRecord)
	} else if ok {
		// Still monitor the constraint without storing samples.
		obs.SetOnStep(sc.onMonitor)
	}

	start := time.Now()
	var stats ode.Stats
	var tauSwitch, tauSlip float64 // where the first two regimes ended, if taken
	var err error

	// Phase 1: tight coupling while it holds for the strictest member.
	tau := tauStart
	if !p.DisableTightCoupling && ref.tcaHolds(mdl.BG.AofTau(tauStart), false) {
		for i := range b.ms {
			b.ms[i].tca = true
		}
		if t := ref.findTCASwitch(tauStart, p.TauEnd, false); t > tauStart {
			tauSwitch = t
			tau, y, err = b.integrateSpan(integ, tau, tauSwitch, y, &stats)
			if err != nil {
				return fmt.Errorf("core: tight-coupling phase (%s): %w", blockName(ks), err)
			}
		}
		for i := range b.ms {
			m := &b.ms[i]
			m.releaseTightCoupling(tau, y[i*b.nvar:(i+1)*b.nvar])
			m.tca = false
		}
		if t := ref.slipEnd(tau, p.TauEnd); t > tau {
			tauSlip = t
			b.seatSlip(true, tau, y)
			tau, y, err = b.integrateSpan(integ, tau, tauSlip, y, &stats)
			if err != nil {
				return fmt.Errorf("core: slip phase (%s): %w", blockName(ks), err)
			}
			b.seatSlip(false, tau, y)
		}
	}

	// Phase 2: full equations to the end.
	_, y, err = b.integrateSpan(integ, tau, p.TauEnd, y, &stats)
	if err != nil {
		return fmt.Errorf("core: full phase (%s): %w", blockName(ks), err)
	}

	sec := time.Since(start).Seconds() / float64(nb)
	for i := range b.ms {
		m := &b.ms[i]
		// m.flops was billed per segment at the hierarchy size carried.
		res := &Result{K: ks[i], Gauge: p.Gauge, LMax: p.LMax, TauSwitch: tauSwitch, TauSlip: tauSlip,
			Stats: stats, Flops: m.flops, Seconds: sec, MaxConstraintResidual: m.maxResidual, Sources: m.sources}
		if m.streaming() {
			res.TauStream = ref.streamAt
		}
		m.pack(p.TauEnd, y[i*b.nvar:(i+1)*b.nvar], res)
		results[i] = res
	}
	if p.KeepSources {
		sc.srcCount = len(b.ms[0].sources) // lockstep: every member recorded as many
	}
	return nil
}

// seatSlip is mode.seatSlip member by member.
func (b *batch) seatSlip(on bool, tau float64, y []float64) {
	n, nb := b.nvar, len(b.ms)
	dy := b.sc.spareBuf(nb*n, nb*b.ms[b.ref].maxNvar())
	for i := range b.ms {
		b.ms[i].seatSlip(on, tau, y[i*n:(i+1)*n], dy[i*n:(i+1)*n])
	}
}

// integrateSpan advances the concatenated state from tau to tEnd one planned
// segment at a time: the reference member plans them (see nextStop), the
// state is re-laid out wherever the plan changes the hierarchy cutoff, and
// every segment bills each member for the hierarchy it carried.
func (b *batch) integrateSpan(integ ode.Integrator, tau, tEnd float64, y []float64, stats *ode.Stats) (float64, []float64, error) {
	ref := &b.ms[b.ref]
	for {
		next, lNew := ref.nextStop(tau, tEnd)
		st, err := integ.Integrate(b.sc.rhsf, tau, next, y)
		stats.Add(st)
		for i := range b.ms {
			m := &b.ms[i]
			m.flops += float64(st.Evals) * FlopsPerRHS(m.lmax, m.lnu, m.nq, m.p.Gauge)
		}
		if err != nil {
			return tau, y, err
		}
		tau = next
		if tau >= tEnd {
			return tau, y, nil
		}
		if lNew != ref.lmax {
			y = b.resize(lNew, y)
		}
	}
}

// resize re-layouts every member for the new shared cutoff, copying the
// surviving moments block by block (growth seeds new moments at zero,
// shrinking drops the tail; the members' index maps are identical, so one
// snapshot of the old layout serves all of them). The target is the arena's
// alternate slot: the old state stays readable during the copy-over and no
// resize allocates once the arena is warm.
func (b *batch) resize(lNew int, y []float64) []float64 {
	m0 := &b.ms[0]
	keep := min(lNew, m0.lmax) + 1
	oldNvar := b.nvar
	oldIfg, oldIgg, oldIfn, oldIpsn := m0.ifg, m0.igg, m0.ifn, m0.ipsn
	for i := range b.ms {
		m := &b.ms[i]
		m.lmax = lNew
		m.layout()
	}
	b.nvar = m0.nvar
	nb := len(b.ms)
	ny := b.sc.resizeBuf(nb*b.nvar, nb*m0.maxNvar())
	for i := range b.ms {
		m := &b.ms[i]
		src := y[i*oldNvar : (i+1)*oldNvar]
		dst := ny[i*b.nvar : (i+1)*b.nvar]
		copy(dst[:oldIfg], src[:oldIfg]) // fluid + metric block: indices unchanged
		copy(dst[m.ifg:m.ifg+keep], src[oldIfg:oldIfg+keep])
		copy(dst[m.igg:m.igg+keep], src[oldIgg:oldIgg+keep])
		copy(dst[m.ifn:m.ifn+keep], src[oldIfn:oldIfn+keep])
		copy(dst[m.ipsn:m.ipsn+m.nq*(m.lnu+1)], src[oldIpsn:oldIpsn+m.nq*(m.lnu+1)])
	}
	return ny
}

// fillBG performs the one shared background/thermodynamics evaluation of a
// right-hand-side call, through the same path (flattened tables or exact
// splines) the members themselves would take.
func (b *batch) fillBG(a float64) {
	m := &b.ms[0]
	b.bg.kapOK = false
	if m.tab != nil {
		m.tab.Eval(a, &b.bg.g, &b.bg.th)
	} else {
		m.BG.Eval(a, &b.bg.g)
		b.bg.th = tabThermo{Kd: m.TH.Opacity(a), Cs2: m.TH.Cs2(a)}
	}
	b.bg.a = a
}

// rhs is the batched right-hand side: one shared background fill, then the
// scalar right-hand side per member block.
func (b *batch) rhs(tau float64, y, dy []float64) {
	n := b.nvar
	b.fillBG(y[b.ms[0].ia])
	for i := range b.ms {
		b.ms[i].rhs(tau, y[i*n:(i+1)*n], dy[i*n:(i+1)*n])
	}
}

// record is the batched per-step source recorder: the shared background
// point (including the per-step optical depth) is refreshed once, then
// each member records its own sample.
func (b *batch) record(tau float64, y []float64) {
	n := b.nvar
	m0 := &b.ms[0]
	a := y[m0.ia]
	b.fillBG(a)
	if m0.tab != nil {
		b.bg.kappa = m0.tab.OpticalDepth(a)
	} else {
		b.bg.kappa = m0.TH.OpticalDepth(a)
	}
	b.bg.kapOK = true
	for i := range b.ms {
		b.ms[i].record(tau, y[i*n:(i+1)*n])
	}
}

// monitor is the batched constraint monitor.
func (b *batch) monitor(tau float64, y []float64) {
	n := b.nvar
	b.fillBG(y[b.ms[0].ia])
	for i := range b.ms {
		b.ms[i].monitor(tau, y[i*n:(i+1)*n])
	}
}
