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
// bitwise — callers needing the exact scalar trajectory use KBatch = 1.
//
// Tight coupling is driven by the largest-k member (its criterion
// kappa-dot > TCAFactor*k is the strictest in the batch), so smaller
// members release early — always physically valid, the exact equations
// merely cost more steps. Hierarchy growth and the late-time shrink follow
// the largest-k member for the same reason; the streaming switch, whose
// premise is k*tau >> 1, waits for the smallest-k member. A batch of one,
// or a run with a caller-supplied Integrator, delegates to EvolveWith per
// mode and is bitwise identical to the scalar path.
func (mdl *Model) EvolveBatchWith(ks []float64, p Params, perkLMax []int, sc *Scratch) ([]*Result, error) {
	nb := len(ks)
	if nb == 0 {
		return nil, fmt.Errorf("core: empty k batch")
	}
	if perkLMax != nil && len(perkLMax) != nb {
		return nil, fmt.Errorf("core: %d k values but %d per-k cutoffs", nb, len(perkLMax))
	}
	if nb == 1 || p.Integrator != nil {
		out := make([]*Result, nb)
		for i, k := range ks {
			pm := p
			pm.K = k
			if perkLMax != nil && perkLMax[i] > 0 {
				pm.LMax = perkLMax[i]
			}
			r, err := mdl.EvolveWith(pm, sc)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	p.setDefaults()
	for _, k := range ks {
		if k <= 0 {
			return nil, fmt.Errorf("core: k = %g must be positive", k)
		}
	}
	if p.TauEnd <= 0 {
		p.TauEnd = mdl.BG.Tau0()
	}
	if p.TauEnd > mdl.BG.Tau0()*1.0000001 {
		return nil, fmt.Errorf("core: TauEnd = %g beyond the present %g", p.TauEnd, mdl.BG.Tau0())
	}
	// Unified hierarchy cutoff: the largest member cap covers the batch.
	lcap := p.LMax
	if perkLMax != nil {
		lcap = 0
		for _, l := range perkLMax {
			if l <= 0 {
				l = p.LMax
			}
			if l > lcap {
				lcap = l
			}
		}
	}
	if sc == nil {
		sc = &Scratch{}
	}
	b := &sc.bat
	b.sc = sc
	if cap(b.ms) < nb {
		b.ms = make([]mode, nb)
	}
	b.ms = b.ms[:nb]
	if sc.brhsf == nil {
		sc.brhsf = b.rhs
		sc.bOnRecord = b.record
		sc.bOnMonitor = b.monitor
	}
	var tab *EvalTables
	if p.FastEvolve && !p.noTables {
		tab = mdl.EnsureEvalTables(nil)
	}

	b.ref = 0
	kmin := ks[0]
	tauStart := math.Inf(1)
	for i := range b.ms {
		m := &b.ms[i]
		pm := p
		pm.K = ks[i]
		pm.LMax = lcap
		*m = mode{Model: mdl, p: pm, k: ks[i], k2: ks[i] * ks[i], sc: sc, tab: tab, bgCache: &b.bg}
		if ks[i] > ks[b.ref] {
			b.ref = i
		}
		kmin = min(kmin, ks[i])
		if t := m.startTime(); t < tauStart {
			tauStart = t
		}
	}
	if tauStart >= p.TauEnd {
		return nil, fmt.Errorf("core: start time %g is not before end time %g (batch k=%g..%g)", tauStart, p.TauEnd, ks[0], ks[nb-1])
	}
	ref := &b.ms[b.ref]
	lmax0 := lcap
	if p.FastEvolve && !p.noGrowLMax {
		ref.grow = true
		lmax0 = ref.initialLMax(tauStart)
	}
	for i := range b.ms {
		m := &b.ms[i]
		m.lmax = lmax0
		// Refresh after every layout: the first member may grow the
		// arena's shared ratio tables.
		m.rA, m.rB = sc.rA, sc.rB
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

	dv := sc.integrator(p.RTol, p.ATol)
	dv.InitialStep = tauStart * 1e-3
	dv.CarryStep = true
	if p.FastEvolve && !p.noPI {
		dv.PI = true
	}
	if p.KeepSources {
		ref.ad = dv
		tauRec := mdl.TH.TauRec()
		ref.srcCap.lo = tauRec - SourceWindowBefore
		ref.srcCap.hi = tauRec + SourceWindowAfter
		ref.srcCap.h = srcCapStep
		ref.srcCap.base = dv.MaxStep
		defer func() { dv.MaxStep = ref.srcCap.base }()
	}
	ref.planLateStops(kmin)
	if p.KeepSources {
		dv.SetOnStep(sc.bOnRecord)
	} else {
		dv.SetOnStep(sc.bOnMonitor)
	}

	results := make([]*Result, nb)
	for i := range results {
		results[i] = &Result{K: ks[i], Gauge: p.Gauge, LMax: lcap}
	}
	start := time.Now()

	var stats ode.Stats
	var err error

	// Phase 1: tight coupling while it holds for the strictest member.
	tca := !p.DisableTightCoupling && ref.tcaHolds(mdl.BG.AofTau(tauStart), false)
	tau := tauStart
	if tca {
		for i := range b.ms {
			b.ms[i].tca = true
		}
		tauSwitch := ref.findTCASwitch(tauStart, p.TauEnd, false)
		if tauSwitch > tauStart {
			tau, y, err = b.integrateSpan(dv, tau, tauSwitch, y, &stats)
			if err != nil {
				return nil, fmt.Errorf("core: tight-coupling phase (batch k=%g..%g): %w", ks[0], ks[nb-1], err)
			}
			for i := range results {
				results[i].TauSwitch = tauSwitch
			}
		}
		for i := range b.ms {
			m := &b.ms[i]
			m.releaseTightCoupling(tau, y[i*b.nvar:(i+1)*b.nvar])
			m.tca = false
		}
		if tauSlip := ref.slipEnd(tau, p.TauEnd); tauSlip > tau {
			b.seatSlip(true, tau, y)
			tau, y, err = b.integrateSpan(dv, tau, tauSlip, y, &stats)
			if err != nil {
				return nil, fmt.Errorf("core: slip phase (batch k=%g..%g): %w", ks[0], ks[nb-1], err)
			}
			b.seatSlip(false, tau, y)
			for i := range results {
				results[i].TauSlip = tauSlip
			}
		}
	}

	// Phase 2: full equations to the end.
	_, y, err = b.integrateSpan(dv, tau, p.TauEnd, y, &stats)
	if err != nil {
		return nil, fmt.Errorf("core: full phase (batch k=%g..%g): %w", ks[0], ks[nb-1], err)
	}

	sec := time.Since(start).Seconds() / float64(nb)
	for i := range b.ms {
		m := &b.ms[i]
		res := results[i]
		res.Seconds = sec
		res.Stats = stats
		res.Flops = m.flops
		if m.streaming() {
			res.TauStream = ref.streamAt
		}
		m.pack(p.TauEnd, y[i*b.nvar:(i+1)*b.nvar], res)
		res.MaxConstraintResidual = m.maxResidual
		res.Sources = m.sources
	}
	if p.KeepSources {
		sc.srcCount = len(b.ms[0].sources) // lockstep: every member recorded as many
	}
	return results, nil
}

// seatSlip is mode.seatSlip member by member.
func (b *batch) seatSlip(on bool, tau float64, y []float64) {
	n, nb := b.nvar, len(b.ms)
	dy := b.sc.spareBuf(nb*n, nb*b.ms[b.ref].maxNvar())
	for i := range b.ms {
		b.ms[i].seatSlip(on, tau, y[i*n:(i+1)*n], dy[i*n:(i+1)*n])
	}
}

// integrateSpan is mode.integrateSpan for the concatenated batch system:
// the reference member plans the segments (growth, shrink, streaming and
// the visibility step cap), and every segment bills each member for the
// hierarchy it carried.
func (b *batch) integrateSpan(integ ode.Integrator, tau, tEnd float64, y []float64, stats *ode.Stats) (float64, []float64, error) {
	ref := &b.ms[b.ref]
	for {
		next, lNew := ref.nextStop(tau, tEnd)
		st, err := integ.Integrate(b.sc.brhsf, tau, next, y)
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
// surviving moments block by block (the members' index maps are identical,
// so one snapshot of the old layout serves all of them).
func (b *batch) resize(lNew int, y []float64) []float64 {
	m0 := &b.ms[0]
	keep := min(lNew, m0.lmax) + 1
	oldNvar := b.nvar
	oldIfg, oldIgg, oldIfn, oldIpsn := m0.ifg, m0.igg, m0.ifn, m0.ipsn
	for i := range b.ms {
		m := &b.ms[i]
		m.lmax = lNew
		m.rA, m.rB = b.sc.rA, b.sc.rB
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
