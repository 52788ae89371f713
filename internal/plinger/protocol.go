// Package plinger implements the wire protocol of the paper's parallel
// code: the master/worker decomposition over independent k modes, using
// exactly the message-passing algorithm of Appendix A. The master
// broadcasts the run parameters (tag 1), workers request wavenumbers
// (tag 2), the master assigns them (tag 3), workers return a 21-double
// summary block (tag 4) followed by the full multipole block of
// 8+2(lmax+1) doubles (tag 5), and the master answers each result with the
// next wavenumber or a stop message (tag 6). The master writes an ASCII
// summary file and a binary moment file, like the original's
// unit_1/unit_2.
//
// Scheduling policy (the paper's largest-k-first trick) and run telemetry
// live one layer up, in internal/dispatch: the master receives an explicit
// hand-out order and returns raw per-worker tallies.
package plinger

import (
	"fmt"

	"plinger/internal/core"
)

// Message tags 1-6 exactly as tabulated in Appendix A of the paper; tags 7
// and 8 are this port's extensions: line-of-sight source samples, so a
// CMBFAST-style spectrum can be assembled at the master, and death reports.
const (
	// TagInit is the first message from master to workers.
	TagInit = 1
	// TagRequest is sent by a worker asking for a wavenumber.
	TagRequest = 2
	// TagAssign carries a wavenumber index from master to worker.
	TagAssign = 3
	// TagSummary carries the worker's first data block (21 doubles + lmax).
	TagSummary = 4
	// TagMoments carries the worker's second block (8 + 2(lmax+1) doubles).
	TagMoments = 5
	// TagStop tells a worker to exit.
	TagStop = 6
	// TagSources carries the recorded line-of-sight source samples; it is
	// only sent when the run requests KeepSources.
	TagSources = 7
	// TagDown is the fault-tolerant master's death report, reserved for the
	// master's own endpoint: whoever learns out of band that a worker died
	// (its goroutine returned an error, its connection dropped) sends the
	// rank to the master's rank on the master's endpoint, so the report
	// wakes the master's probe like any message. From any other source it
	// is an unexpected tag.
	TagDown = 8
)

// initBlockLen is the length of the tag-1 broadcast: the paper's 5 doubles
// of run parameters plus the keep-sources flag.
const initBlockLen = 6

// summaryBlockLen is the length of the tag-4 block: the paper's master
// receives 21 doubles (20 summary values plus lmax).
const summaryBlockLen = 21

// Summary block layout (the paper prints y(1..20) to the ASCII file and
// keeps y(21) = lmax).
const (
	sumIK       = 0  // wavenumber index (1-based, as in the Fortran)
	sumK        = 1  // k in Mpc^-1
	sumTau      = 2  // final conformal time
	sumA        = 3  // final scale factor
	sumDeltaC   = 4  // CDM density contrast
	sumDeltaB   = 5  // baryon density contrast
	sumDeltaG   = 6  // photon density contrast
	sumDeltaNu  = 7  // massless neutrino density contrast
	sumDeltaHNu = 8  // massive neutrino density contrast
	sumThetaC   = 9  // CDM velocity divergence
	sumThetaB   = 10 // baryon velocity divergence
	sumPhi      = 11 // Newtonian potential phi (or 0)
	sumPsi      = 12 // Newtonian potential psi (or 0)
	sumEta      = 13 // synchronous eta (or 0)
	sumHDot     = 14 // synchronous h-dot (or 0)
	sumResidual = 15 // max Einstein constraint residual
	sumSeconds  = 16 // worker CPU seconds for this mode
	sumFlops    = 17 // model flop count for this mode
	sumSteps    = 18 // accepted integrator steps
	sumEvals    = 19 // right-hand-side evaluations
	sumLMax     = 20 // hierarchy cutoff (the paper's y(21))
)

// momentsHeaderLen is the 8-double header preceding the two moment arrays
// in the tag-5 block.
const momentsHeaderLen = 8

// packSummary flattens a Result into the paper's tag-4 block.
func packSummary(ik int, r *core.Result) []float64 {
	y := make([]float64, summaryBlockLen)
	y[sumIK] = float64(ik)
	y[sumK] = r.K
	y[sumTau] = r.Tau
	y[sumA] = r.A
	y[sumDeltaC] = r.DeltaC
	y[sumDeltaB] = r.DeltaB
	y[sumDeltaG] = r.DeltaG
	y[sumDeltaNu] = r.DeltaNu
	y[sumDeltaHNu] = r.DeltaHNu
	y[sumThetaC] = r.ThetaC
	y[sumThetaB] = r.ThetaB
	y[sumPhi] = r.Phi
	y[sumPsi] = r.Psi
	y[sumEta] = r.Eta
	y[sumHDot] = r.HDot
	y[sumResidual] = r.MaxConstraintResidual
	y[sumSeconds] = r.Seconds
	y[sumFlops] = r.Flops
	y[sumSteps] = float64(r.Stats.Steps)
	y[sumEvals] = float64(r.Stats.Evals)
	y[sumLMax] = float64(r.LMax)
	return y
}

// packMoments flattens the multipoles into the paper's tag-5 block:
// an 8-double header, then Theta_l (temperature), then ThetaP_l
// (polarization), each of length lmax+1.
func packMoments(ik int, r *core.Result) []float64 {
	l1 := len(r.ThetaL)
	y := make([]float64, momentsHeaderLen+2*l1)
	y[0] = float64(ik)
	y[1] = r.K
	y[2] = float64(l1 - 1)
	y[3] = r.Tau
	y[4] = float64(r.Gauge)
	y[5] = r.MaxConstraintResidual
	y[6] = r.Seconds
	y[7] = r.Flops
	copy(y[momentsHeaderLen:], r.ThetaL)
	copy(y[momentsHeaderLen+l1:], r.ThetaPL)
	return y
}

// sourcesHeaderLen is the 3-double header (ik, sample count, fields per
// sample) preceding the flattened samples in the tag-7 block.
const sourcesHeaderLen = 3

// sourceFieldLen is the number of doubles per line-of-sight sample; the
// field count travels in the header so a mismatch is detected, not
// misparsed.
const sourceFieldLen = 17

// packSources flattens the recorded line-of-sight samples into the tag-7
// block.
func packSources(ik int, r *core.Result) []float64 {
	y := make([]float64, sourcesHeaderLen+sourceFieldLen*len(r.Sources))
	y[0] = float64(ik)
	y[1] = float64(len(r.Sources))
	y[2] = sourceFieldLen
	o := sourcesHeaderLen
	for _, s := range r.Sources {
		y[o+0] = s.Tau
		y[o+1] = s.A
		y[o+2] = s.Theta0
		y[o+3] = s.Psi
		y[o+4] = s.Phi
		y[o+5] = s.PhiDot
		y[o+6] = s.Eta
		y[o+7] = s.HDot
		y[o+8] = s.EtaDot
		y[o+9] = s.Alpha
		y[o+10] = s.VB
		y[o+11] = s.Pi
		y[o+12] = s.Kdot
		y[o+13] = s.Kappa
		y[o+14] = s.DeltaC
		y[o+15] = s.DeltaB
		y[o+16] = s.Residual
		o += sourceFieldLen
	}
	return y
}

// unpackSources reconstructs the line-of-sight samples from a tag-7 block.
func unpackSources(ik int, y []float64) ([]core.Sample, error) {
	if len(y) < sourcesHeaderLen {
		return nil, fmt.Errorf("plinger: sources block length %d", len(y))
	}
	if int(y[0]) != ik {
		return nil, fmt.Errorf("plinger: sources block for ik=%d arrived with result for ik=%d", int(y[0]), ik)
	}
	if int(y[2]) != sourceFieldLen {
		return nil, fmt.Errorf("plinger: sources block has %d fields per sample, want %d", int(y[2]), sourceFieldLen)
	}
	n := int(y[1])
	if n < 0 || len(y) != sourcesHeaderLen+n*sourceFieldLen {
		return nil, fmt.Errorf("plinger: sources block length %d for %d samples", len(y), n)
	}
	out := make([]core.Sample, n)
	o := sourcesHeaderLen
	for i := range out {
		out[i] = core.Sample{
			Tau: y[o+0], A: y[o+1], Theta0: y[o+2],
			Psi: y[o+3], Phi: y[o+4], PhiDot: y[o+5],
			Eta: y[o+6], HDot: y[o+7], EtaDot: y[o+8], Alpha: y[o+9],
			VB: y[o+10], Pi: y[o+11],
			Kdot: y[o+12], Kappa: y[o+13],
			DeltaC: y[o+14], DeltaB: y[o+15],
			Residual: y[o+16],
		}
		o += sourceFieldLen
	}
	return out, nil
}

// unpackResult reconstructs a Result (the master's view) from the two
// blocks.
func unpackResult(sum, mom []float64) (ik int, r *core.Result, err error) {
	if len(sum) != summaryBlockLen {
		return 0, nil, fmt.Errorf("plinger: summary block length %d, want %d", len(sum), summaryBlockLen)
	}
	lmax := int(sum[sumLMax])
	l1 := lmax + 1
	if len(mom) != momentsHeaderLen+2*l1 {
		return 0, nil, fmt.Errorf("plinger: moment block length %d, want %d", len(mom), momentsHeaderLen+2*l1)
	}
	ik = int(sum[sumIK])
	if int(mom[0]) != ik {
		return 0, nil, fmt.Errorf("plinger: moment block for ik=%d arrived with summary for ik=%d", int(mom[0]), ik)
	}
	r = &core.Result{
		K:                     sum[sumK],
		Tau:                   sum[sumTau],
		A:                     sum[sumA],
		Gauge:                 core.Gauge(int(mom[4])),
		LMax:                  lmax,
		DeltaC:                sum[sumDeltaC],
		DeltaB:                sum[sumDeltaB],
		DeltaG:                sum[sumDeltaG],
		DeltaNu:               sum[sumDeltaNu],
		DeltaHNu:              sum[sumDeltaHNu],
		ThetaC:                sum[sumThetaC],
		ThetaB:                sum[sumThetaB],
		Phi:                   sum[sumPhi],
		Psi:                   sum[sumPsi],
		Eta:                   sum[sumEta],
		HDot:                  sum[sumHDot],
		MaxConstraintResidual: sum[sumResidual],
		Seconds:               sum[sumSeconds],
		Flops:                 sum[sumFlops],
		ThetaL:                append([]float64(nil), mom[momentsHeaderLen:momentsHeaderLen+l1]...),
		ThetaPL:               append([]float64(nil), mom[momentsHeaderLen+l1:]...),
	}
	r.Stats.Steps = int(sum[sumSteps])
	r.Stats.Evals = int(sum[sumEvals])
	return ik, r, nil
}
