package core

// Tests of the slip regime: the quasi-static momentum exchange against the
// evolved slip, the regime against the released equations it replaces, and
// the modes that must never see it.

import (
	"math"
	"reflect"
	"testing"

	"plinger/internal/cosmology"
)

// losFast is the sweep's per-mode request: a conformal Newtonian
// source-recording run of the fast engine.
func losFast(k float64) Params {
	return Params{K: k, LMax: 24, Gauge: ConformalNewtonian, KeepSources: true, FastEvolve: true}
}

// TestSlipExchangeMatchesState: on a state evolved with the released
// equations (noSlip) well into the span the regime covers, the regime's
// momentum exchange reproduces kd (theta_g - theta_b) of that state to
// 2e-5, in both gauges — and the leading order alone, N/(1+R), is at least
// ten times further off, which is why the regime carries the second order.
func TestSlipExchangeMatchesState(t *testing.T) {
	mdl := model(t)
	for _, gauge := range []Gauge{ConformalNewtonian, Synchronous} {
		for _, k := range []float64{0.05, 0.1} {
			for _, tau := range []float64{90, 110} {
				p := Params{K: k, LMax: 24, Gauge: gauge, FastEvolve: true, noSlip: true, RTol: 1e-10, TauEnd: tau}
				sc := NewScratch()
				if _, err := mdl.EvolveWith(p, sc); err != nil {
					t.Fatal(err)
				}
				m := &sc.bat.ms[0]
				y := sc.state[sc.cur][:m.nvar]
				m.slip = true
				m.rhs(tau, y, make([]float64, m.nvar))
				state := m.tt.Kd * (0.75*k*y[m.ifg+1] - y[m.itb])

				var s sums
				m.gatherSums(tau, y, &s)
				r := 4.0 / 3.0 * m.scratch.G / m.scratch.B
				n := m.k2*(0.25*s.deltaG-s.sigmaG) + s.hconf*y[m.itb] - s.cs2*m.k2*y[m.idb]
				second, first := math.Abs(m.slipX/state-1), math.Abs(n/(1+r)/state-1)
				t.Logf("%v k=%g tau=%g: R=%.1f, second order off by %.2g, first order by %.2g", gauge, k, tau, r, second, first)
				if second > 2e-5 || first < 2e-4 {
					t.Errorf("%v k=%g tau=%g: regime's exchange %.2g from the state's (want <= 2e-5), leading order %.2g (want >= 2e-4)",
						gauge, k, tau, second, first)
				}
			}
		}
	}
}

// amplitudes returns the largest |Theta0|, |VB| and |Phi| among the samples
// of the last span Mpc of a run: the acoustic amplitudes there.
func amplitudes(r *Result, span float64) (theta0, vb, phi float64) {
	for _, s := range r.Sources {
		if s.Tau >= r.Tau-span {
			theta0 = math.Max(theta0, math.Abs(s.Theta0))
			vb = math.Max(vb, math.Abs(s.VB))
			phi = math.Max(phi, math.Abs(s.Phi))
		}
	}
	return theta0, vb, phi
}

// slipShift is the largest difference between two runs' final monopole,
// dipole, baryon velocity and potential, each relative to its acoustic
// amplitude over the last 60 Mpc of the reference run.
func slipShift(ref, got *Result) float64 {
	a0, av, ap := amplitudes(ref, 60)
	return max(
		math.Abs(got.DeltaG-ref.DeltaG)/4/a0,
		math.Abs(got.ThetaL[1]-ref.ThetaL[1])*3/av,
		math.Abs(got.ThetaB-ref.ThetaB)/ref.K/av,
		math.Abs(got.Phi-ref.Phi)/ap)
}

// TestSlipRegimeMatchesReleased: the regime against the same engine
// evolving the slip from the tight-coupling release on (noSlip), read off
// inside the visibility window.
func TestSlipRegimeMatchesReleased(t *testing.T) {
	mdl := model(t)
	tauRec := mdl.TH.TauRec()
	for _, k := range []float64{0.04, 0.07, 0.1} {
		for _, tauEnd := range []float64{tauRec - 60, tauRec} {
			for _, rtol := range []float64{0, 1e-9} { // the default, and the integrator out of the way
				p := losFast(k)
				p.TauEnd, p.RTol = tauEnd, rtol
				got := evolve(t, p)
				p.noSlip = true
				ref := evolve(t, p)
				if !(ref.TauSwitch < got.TauSlip && got.TauSlip <= tauRec-SourceWindowBefore) || ref.TauSlip != 0 {
					t.Fatalf("k=%g: TauSwitch %g, TauSlip %g (noSlip: %g), window start %g", k, ref.TauSwitch, got.TauSlip, ref.TauSlip, tauRec-SourceWindowBefore)
				}
				d := slipShift(ref, got)
				t.Logf("k=%g tau=%.0f rtol=%g: slip regime to %.1f, final state within %.2g of the released run", k, tauEnd, rtol, got.TauSlip, d)
				if d > 2e-6 {
					t.Errorf("k=%g tau=%.0f rtol=%g: final state %.2g of the acoustic amplitude from the released run, want <= 2e-6", k, tauEnd, rtol, d)
				}
			}
		}
	}

	// What it is for: the steps the released equations spend on the
	// slip's stability boundary before the window opens.
	p := losFast(0.1)
	p.TauEnd = tauRec + 60
	got := evolve(t, p)
	p.noSlip = true
	ref := evolve(t, p)
	t.Logf("k=0.1 to tauRec+60: %d accepted steps, released from the start %d", got.Stats.Steps, ref.Stats.Steps)
	if 10*got.Stats.Steps > 6*ref.Stats.Steps {
		t.Errorf("k=0.1 to tauRec+60: %d accepted steps against %d without the regime, want >= 40 %% fewer", got.Stats.Steps, ref.Stats.Steps)
	}

	// Tight coupling that lasts until the window opens: never entered.
	for _, k := range []float64{0.002, 0.01} {
		p := losFast(k)
		got := evolve(t, p)
		p.noSlip = true
		ref := evolve(t, p)
		got.Seconds, ref.Seconds = 0, 0
		if got.TauSlip != 0 || !reflect.DeepEqual(got, ref) {
			t.Errorf("k=%g (released at %g, window start %g): TauSlip = %g, run not bitwise the released one", k, ref.TauSwitch, tauRec-SourceWindowBefore, got.TauSlip)
		}
	}

	// The lockstep batch: the largest member drives the regime, so its
	// neighbours sit in it with a smaller k/lambda than their own.
	ks := []float64{0.097, 0.098, 0.099, 0.1}
	for _, tauEnd := range []float64{tauRec - 60, tauRec} {
		p := losFast(0)
		p.TauEnd, p.RTol = tauEnd, 1e-9
		got, err := mdl.EvolveBatch(ks, p)
		if err != nil {
			t.Fatal(err)
		}
		p.noSlip = true
		ref, err := mdl.EvolveBatch(ks, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ks {
			if got[i].TauSlip <= got[i].TauSwitch || got[i].TauSlip != got[len(ks)-1].TauSlip {
				t.Fatalf("batch member k=%g: TauSwitch %g, TauSlip %g", ks[i], got[i].TauSwitch, got[i].TauSlip)
			}
			d := slipShift(ref[i], got[i])
			t.Logf("batch member k=%g tau=%.0f: final state within %.2g of the released batch", ks[i], tauEnd, d)
			if d > 1e-5 {
				t.Errorf("batch member k=%g tau=%.0f: final state %.2g of the acoustic amplitude from the released batch, want <= 1e-5", ks[i], tauEnd, d)
			}
		}
	}
}

// TestEvalTablesDerivatives: the three slopes Eval reports are the
// derivatives of the values it reports, checked against centred differences
// in ln a through the radiation era, equality and recombination.
func TestEvalTablesDerivatives(t *testing.T) {
	tab := model(t).EnsureEvalTables(nil)
	at := func(lnA float64) (g cosmology.Grho, th tabThermo) {
		tab.Eval(math.Exp(lnA), &g, &th)
		return g, th
	}
	const h = 1e-3 // a fifth of a table cell
	for _, a := range []float64{1e-4, 3e-4, 9e-4, 1e-2} {
		lnA := math.Log(a)
		gp, tp := at(lnA + h)
		gm, tm := at(lnA - h)
		g, th := at(lnA)
		for _, c := range []struct {
			name            string
			got, want, size float64
		}{
			{"d ln kd", th.DlnKd, (math.Log(tp.Kd) - math.Log(tm.Kd)) / (2 * h), 1},
			{"d cs2", th.DCs2, (tp.Cs2 - tm.Cs2) / (2 * h), th.Cs2},
			{"d aH", th.DHConf, (gp.HConf - gm.HConf) / (2 * h), g.HConf},
		} {
			if d := math.Abs(c.got-c.want) / math.Max(math.Abs(c.want), c.size); d > 1e-4 {
				t.Errorf("a=%g: %s per ln a = %g, centred difference %g (off by %.2g)", a, c.name, c.got, c.want, d)
			}
		}
	}
}
