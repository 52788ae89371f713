package dispatch

// The wire half of the Appendix-A protocol: the worker subroutine and the
// blocks it exchanges with the master (RunMaster). The master broadcasts the
// run parameters (tag 1), workers request wavenumbers (tag 2), the master
// assigns them (tag 3), workers return a 21-double summary block (tag 4)
// followed by the full multipole block of 8+2(lmax+1) doubles (tag 5), and
// the master answers each result with the next wavenumber or a stop message
// (tag 6), the stop held back while another worker's block may yet need
// re-running. The tags are mp's, next to the frame that carries them.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"plinger/internal/core"
	"plinger/internal/mp"
)

// initBlockLen is the length of the tag-1 broadcast: the paper's 5 doubles
// of run parameters plus the keep-sources flag.
const initBlockLen = 6

// maxWireInt bounds every count and index read off the wire: the largest
// integer a double carries exactly, so no arithmetic on one can overflow,
// and no more than an int holds where that is 32 bits.
const maxWireInt = min(1<<53, math.MaxInt)

// wireInt reads a count or index the wire carries as a double. It must be an
// integer in [lo, hi] whose double is exactly v — not NaN, not fractional,
// not -0 — so converting it back gives the same bits.
func wireInt(v float64, lo, hi int) (int, bool) {
	if !(v >= float64(lo) && v <= float64(hi)) {
		return 0, false
	}
	n := int(v)
	return n, math.Float64bits(float64(n)) == math.Float64bits(v)
}

// parseInit applies a tag-1 broadcast to the mode a worker was started with
// for a grid of nk wavenumbers: the end time (finite, > 0), the hierarchy
// cutoff (0: the worker's own; never above it, since the worker's own mode
// is what its operator sized), the grid size (nk itself, so a worker started
// on another grid is refused here), the gauge, rtol (finite, >= 0; 0: the
// worker's own) and the keep-sources flag (0 or 1).
func parseInit(y []float64, nk int, mode core.Params) (core.Params, error) {
	if len(y) != initBlockLen {
		return mode, fmt.Errorf("dispatch: init block length %d", len(y))
	}
	tauEnd, rtol := y[0], y[4]
	lmax, okL := wireInt(y[1], 0, max(mode.LMax, 0))
	_, okN := wireInt(y[2], nk, nk)
	gauge, okG := wireInt(y[3], int(core.Synchronous), int(core.ConformalNewtonian))
	keep, okK := wireInt(y[5], 0, 1)
	if !(tauEnd > 0 && tauEnd <= math.MaxFloat64) || !(rtol >= 0 && rtol <= math.MaxFloat64) || !okL || !okN || !okG || !okK {
		return mode, fmt.Errorf("dispatch: init block %v does not fit a worker of %d wavenumbers and cutoff %d", y, nk, mode.LMax)
	}
	mode.TauEnd = tauEnd
	if lmax > 0 {
		mode.LMax = lmax
	}
	mode.Gauge = core.Gauge(gauge)
	if rtol > 0 {
		mode.RTol = rtol
	}
	mode.KeepSources = keep == 1
	return mode, nil
}

// parseAssign reads a tag-3 assignment for a grid of nk wavenumbers: the
// 1-based first index, then optionally the hierarchy cutoff (0: the
// broadcast one, which bounds it: PerKLMax never exceeds it) and the block
// size, the block inside the grid.
func parseAssign(a []float64, nk, lmaxCap int) (ik1, lmax, bsize int, err error) {
	v := [3]float64{0, 0, 1}
	if len(a) < 1 || len(a) > len(v) {
		return 0, 0, 0, fmt.Errorf("dispatch: assignment of %d values", len(a))
	}
	copy(v[:], a)
	ik1, ok1 := wireInt(v[0], 1, nk)
	lmax, ok2 := wireInt(v[1], 0, max(lmaxCap, 0))
	bsize, ok3 := wireInt(v[2], 1, nk-ik1+1)
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, fmt.Errorf("dispatch: assignment %v does not name a block of the %d wavenumbers at cutoff <= %d", a, nk, lmaxCap)
	}
	return ik1, lmax, bsize, nil
}

// Worker runs the worker subroutine of Appendix A: receive the initial
// broadcast, then alternate between requesting work and returning results
// until a stop message arrives. Every assigned block evolves in scratch: a
// long-lived worker process (cmd/plingerw) hands the same arena to every
// sweep it serves, so the state buffers and the pooled integrator stay warm
// across sweeps instead of being rebuilt per run. A nil scratch allocates a
// fresh one for this run.
func Worker(ep mp.Endpoint, model *core.Model, ks []float64, mode core.Params, scratch *core.Scratch) error {
	master := ep.Master()
	// Receive initial data (tag 1).
	init, err := ep.Recv(mp.TagInit, master)
	if err != nil {
		return fmt.Errorf("dispatch: worker init: %w", err)
	}
	if mode, err = parseInit(init.Data, len(ks), mode); err != nil {
		return err
	}

	// Ask for the first wavenumber (tag 2).
	if err := ep.Send(master, mp.TagRequest, []float64{0}); err != nil {
		return err
	}
	if scratch == nil {
		scratch = core.NewScratch()
	}
	for {
		// Receive next assignment or stop (mychecktid pattern: any tag
		// from the master).
		m, err := ep.Recv(mp.AnyTag, master)
		if err != nil {
			return err
		}
		if m.Tag == mp.TagStop {
			return nil
		}
		if m.Tag != mp.TagAssign {
			return fmt.Errorf("dispatch: worker got unexpected tag %d", m.Tag)
		}
		ik1, lmax, bsize, err := parseAssign(m.Data, len(ks), mode.LMax)
		if err != nil {
			return err
		}
		p := mode
		p.K = ks[ik1-1]
		if lmax > 0 {
			p.LMax = lmax
		}
		// The worker is batch-agnostic: the block size rides in each
		// assignment, a one-mode block is the single-mode evolution, and
		// the per-member result triplets go back in member order.
		rs, err := model.EvolveBatchWith(ks[ik1-1:ik1-1+bsize], p, nil, scratch)
		if err != nil {
			return fmt.Errorf("dispatch: worker evolve (ik=%d+%d, k=%g): %w", ik1, bsize, p.K, err)
		}
		for j, r := range rs {
			if err := ep.Send(master, mp.TagSummary, packSummary(ik1+j, r)); err != nil {
				return err
			}
			if err := ep.Send(master, mp.TagMoments, packMoments(ik1+j, r)); err != nil {
				return err
			}
			if mode.KeepSources {
				if err := ep.Send(master, mp.TagSources, packSources(ik1+j, r)); err != nil {
					return err
				}
			}
			// Booked once sent: a mode that never reaches the master is
			// evolved again elsewhere and booked there.
			observeMode(ep.Rank(), r.Seconds)
		}
	}
}

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

// summarySlots points each floating-point slot of the tag-4 block at its
// field of r, for packSummary and unpackResult alike; the integer slots
// (index, step counts, cutoff) are nil.
func summarySlots(r *core.Result) [summaryBlockLen]*float64 {
	return [summaryBlockLen]*float64{
		sumK: &r.K, sumTau: &r.Tau, sumA: &r.A,
		sumDeltaC: &r.DeltaC, sumDeltaB: &r.DeltaB, sumDeltaG: &r.DeltaG,
		sumDeltaNu: &r.DeltaNu, sumDeltaHNu: &r.DeltaHNu,
		sumThetaC: &r.ThetaC, sumThetaB: &r.ThetaB,
		sumPhi: &r.Phi, sumPsi: &r.Psi, sumEta: &r.Eta, sumHDot: &r.HDot,
		sumResidual: &r.MaxConstraintResidual, sumSeconds: &r.Seconds, sumFlops: &r.Flops,
	}
}

// packSummary flattens a Result into the paper's tag-4 block.
func packSummary(ik int, r *core.Result) []float64 {
	y := make([]float64, summaryBlockLen)
	for i, f := range summarySlots(r) {
		if f != nil {
			y[i] = *f
		}
	}
	y[sumIK] = float64(ik)
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

// sampleSlots lists a sample's fields in their tag-7 order, for packSources
// and unpackSources alike.
func sampleSlots(s *core.Sample) [sourceFieldLen]*float64 {
	return [...]*float64{&s.Tau, &s.A, &s.Theta0, &s.Psi, &s.Phi, &s.PhiDot,
		&s.Eta, &s.HDot, &s.EtaDot, &s.Alpha, &s.VB, &s.Pi, &s.Kdot, &s.Kappa,
		&s.DeltaC, &s.DeltaB, &s.Residual}
}

// packSources flattens the recorded line-of-sight samples into the tag-7
// block.
func packSources(ik int, r *core.Result) []float64 {
	y := make([]float64, sourcesHeaderLen+sourceFieldLen*len(r.Sources))
	y[0] = float64(ik)
	y[1] = float64(len(r.Sources))
	y[2] = sourceFieldLen
	for i := range r.Sources {
		for j, f := range sampleSlots(&r.Sources[i]) {
			y[sourcesHeaderLen+i*sourceFieldLen+j] = *f
		}
	}
	return y
}

// unpackSources reconstructs the line-of-sight samples from a tag-7 block.
// The header is checked before any arithmetic on it, so a block is accepted
// only when packing the samples again gives it back bit for bit.
func unpackSources(ik int, y []float64) ([]core.Sample, error) {
	if len(y) < sourcesHeaderLen {
		return nil, fmt.Errorf("sources block length %d", len(y))
	}
	if _, ok := wireInt(y[0], ik, ik); !ok {
		return nil, fmt.Errorf("sources block for ik=%g arrived with result for ik=%d", y[0], ik)
	}
	if _, ok := wireInt(y[2], sourceFieldLen, sourceFieldLen); !ok {
		return nil, fmt.Errorf("sources block has %g fields per sample, want %d", y[2], sourceFieldLen)
	}
	n, ok := wireInt(y[1], 0, (len(y)-sourcesHeaderLen)/sourceFieldLen)
	if !ok || len(y) != sourcesHeaderLen+n*sourceFieldLen {
		return nil, fmt.Errorf("sources block length %d for %g samples", len(y), y[1])
	}
	out := make([]core.Sample, n)
	for i := range out {
		for j, f := range sampleSlots(&out[i]) {
			*f = y[sourcesHeaderLen+i*sourceFieldLen+j]
		}
	}
	return out, nil
}

// momentsHeader maps each slot of the tag-5 header to the summary slot it
// repeats (-1: the gauge, which only the moments carry).
var momentsHeader = [momentsHeaderLen]int{sumIK, sumK, sumLMax, sumTau, -1, sumResidual, sumSeconds, sumFlops}

// unpackResult reconstructs a Result (the master's view) from the two
// blocks. Every count and index is checked before any arithmetic on it, and
// the moments header must repeat the summary bit for bit, so the blocks are
// accepted only when packing the result again gives them back exactly.
func unpackResult(sum, mom []float64) (ik int, r *core.Result, err error) {
	if len(sum) != summaryBlockLen {
		return 0, nil, fmt.Errorf("summary block length %d, want %d", len(sum), summaryBlockLen)
	}
	ik, okIK := wireInt(sum[sumIK], 1, maxWireInt)
	lmax, okL := wireInt(sum[sumLMax], 0, maxWireInt)
	steps, okS := wireInt(sum[sumSteps], 0, maxWireInt)
	evals, okE := wireInt(sum[sumEvals], 0, maxWireInt)
	if !okIK || !okL || !okS || !okE {
		return 0, nil, fmt.Errorf("summary block for ik=%g: index, cutoff or step counts not integers in range", sum[sumIK])
	}
	l1 := lmax + 1
	if len(mom) != momentsHeaderLen+2*l1 {
		return 0, nil, fmt.Errorf("moment block length %d, want %d", len(mom), momentsHeaderLen+2*l1)
	}
	for i, j := range momentsHeader {
		if j >= 0 && math.Float64bits(mom[i]) != math.Float64bits(sum[j]) {
			return 0, nil, fmt.Errorf("moment block header slot %d (%g) disagrees with the summary for ik=%d (%g)", i, mom[i], ik, sum[j])
		}
	}
	gauge, ok := wireInt(mom[4], int(core.Synchronous), int(core.ConformalNewtonian))
	if !ok {
		return 0, nil, fmt.Errorf("moment block for ik=%d has gauge %g", ik, mom[4])
	}
	r = &core.Result{
		Gauge:   core.Gauge(gauge),
		LMax:    lmax,
		ThetaL:  append([]float64(nil), mom[momentsHeaderLen:momentsHeaderLen+l1]...),
		ThetaPL: append([]float64(nil), mom[momentsHeaderLen+l1:]...),
	}
	for i, f := range summarySlots(r) {
		if f != nil {
			*f = sum[i]
		}
	}
	r.Stats.Steps = steps
	r.Stats.Evals = evals
	return ik, r, nil
}

// WriteRecords writes a finished sweep's unit_1 and unit_2 records, the
// master's output files of Appendix A, one mode after another in grid
// order: to unit1 the first 20 values of each mode's tag-4 block on one
// line, to unit2 each tag-5 block as a length-prefixed little-endian
// record. Either writer may be nil. The blocks are packed again from the
// results, which gives back the ones a worker sent bit for bit, so a
// sweep's records are the same whichever executor ran it, but for each
// mode's CPU seconds.
func WriteRecords(unit1, unit2 io.Writer, sw *Sweep) error {
	for i, r := range sw.Results {
		if unit1 != nil {
			if err := writeASCIIRecord(unit1, packSummary(i+1, r)); err != nil {
				return err
			}
		}
		if unit2 != nil {
			if err := writeBinaryRecord(unit2, packMoments(i+1, r)); err != nil {
				return err
			}
		}
	}
	return nil
}

// asciiRecordLen is the number of summary values printed per ASCII line
// (the paper's "WRITE(unit_1,*) (y(i),i=1,20)").
const asciiRecordLen = 20

// writeASCIIRecord prints the 20 summary values, one line per mode.
func writeASCIIRecord(w io.Writer, sum []float64) error {
	if len(sum) < asciiRecordLen {
		return fmt.Errorf("dispatch: summary block has %d values, need %d for the ASCII record", len(sum), asciiRecordLen)
	}
	for i := 0; i < asciiRecordLen; i++ {
		sep := " "
		if i == asciiRecordLen-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%.10e%s", sum[i], sep); err != nil {
			return err
		}
	}
	return nil
}

// writeBinaryRecord writes the moment block as little-endian float64s with
// a length prefix, the Go rendering of the unformatted Fortran record
// "WRITE(unit_2) ...".
func writeBinaryRecord(w io.Writer, mom []float64) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(mom))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, mom)
}
