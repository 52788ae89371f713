package main

import (
	"time"

	"plinger"
)

// sweepOp runs one ComputeSpectrum and checks it: an op fails on any error,
// a non-finite or non-positive C_l, or a deviation from the committed
// reference beyond maxClRelErr. It returns the wall time in ms and the
// deviation.
func sweepOp(m *plinger.Model, o plinger.SpectrumOptions, ref *reference, rep *childReport) (ms, relErr float64, spec *plinger.Spectrum, ok bool) {
	rep.Attempted++
	t0 := time.Now()
	spec, err := m.ComputeSpectrum(o)
	ms = msSince(t0)
	if err != nil {
		rep.fail("ComputeSpectrum: %v", err)
		return ms, 0, nil, false
	}
	relErr, err = ref.relErr(spec.L, spec.Cl)
	if err != nil {
		rep.fail("%v", err)
		return ms, 0, nil, false
	}
	if relErr > maxClRelErr {
		rep.fail("C_l deviates %.3g from reference %s (limit %.0e)", relErr, ref.Name, maxClRelErr)
		return ms, relErr, spec, false
	}
	return ms, relErr, spec, true
}

// runSweepChild is one process of a sweep workload: one caller looping
// Model.ComputeSpectrum on a warm model.
//
// Set-up is what a fresh process pays before its first warm call: the model
// build and the first, cold call, which builds the evaluation tables and
// the Bessel table. That cold call is the workload's "miss": it found
// nothing cached. Every later call finds the model's tables and the
// process-wide Bessel cache warm and is a "hit", so on the sweep workloads
// hit_p50_ms is the same sample as sweep_p50_ms and hit_p99_ms is its upper
// tail.
func runSweepChild(w workload, a childArgs, nproc int) (*childReport, error) {
	rep := &childReport{Workload: w.Name, Proc: map[string]float64{}}
	ref, err := loadReference(w.Ref)
	if err != nil {
		return nil, err
	}
	var probe *stackProbe
	if a.Trace {
		// Before anything warms the process-wide Bessel cache.
		if probe, err = probeStack(plinger.SCDM(), w.Sweep, nproc); err != nil {
			return nil, err
		}
	}
	m, err := plinger.New(plinger.SCDM())
	if err != nil {
		return nil, err
	}
	coldMS, worst, facade, _ := sweepOp(m, w.Sweep, ref, rep)
	rep.Proc["miss_p50_ms"] = coldMS
	rep.Proc["setup_s"] = a.sinceSpawn()

	if a.Trace {
		if err := tracedSweepPass(w, a, nproc, m, facade, ref, probe, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	roundDur := a.roundDur()
	for r := 0; r < roundsPerProc; r++ {
		vals := map[string]float64{}
		var lat, gaps samples
		ops, ok := 0, 0
		clock := startRound()
		for time.Since(clock.t0) < roundDur {
			t0 := time.Now()
			ms, e, _, good := sweepOp(m, w.Sweep, ref, rep)
			// What the caller spends between calls: checking the answer.
			gaps = append(gaps, msSince(t0)-ms)
			ops++
			if e > worst {
				worst = e
			}
			if good {
				lat = append(lat, ms)
				if ms <= sloSweepMS {
					ok++
				}
			}
		}
		clock.finish(vals, ops, len(lat), ok)
		lat.put(vals, "sweep_p50_ms", "hit_p99_ms")
		if v, has := vals["sweep_p50_ms"]; has {
			vals["hit_p50_ms"] = v
		}
		gaps.put(vals, "gen.gap_p50_ms", "")
		rep.Rounds = append(rep.Rounds, vals)
	}
	rep.Proc["cl_max_rel_err"] = floorErr(worst)
	rep.Proc["rss_peak_mb"] = readUsage().MaxRSSMB
	return rep, nil
}
