package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (metric, workload) pairing.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// exactCounts are the layer counts that repeat exactly run after run, so
// two sets of the same code must agree on them to the last digit.
var exactCounts = []string{
	"ode.steps", "ode.rejected", "ode.rhs_evals", "core.flops", "dispatch.modes",
	"dispatch.bytes_moved", "spectra.coarse_modes", "spectra.project_ls", "serve.sweeps",
}

// judge applies one metric's bound to the runs of an old and a new set.
// The new median may be worse than the old by at most the bound. Where
// either side's own run-to-run spread is wider than the bound the numbers
// cannot settle the question and the pairing is unresolved, unless every
// new run beats every old one.
func judge(d metricDef, old, new []float64) (verdict string, change, noise float64) {
	mo, mn := median(old), median(new)
	change = (mn - mo) / math.Abs(mo) // > 0: the value went up
	worseBy := change
	if d.Better == "higher" {
		worseBy = -change
	}
	noise = math.Max(spread(old), spread(new))
	if math.IsNaN(noise) {
		noise = 0 // a single run a side has no spread to speak of
	}
	dominates := true
	for _, n := range new {
		for _, o := range old {
			if (d.Better == "higher" && n <= o) || (d.Better != "higher" && n >= o) {
				dominates = false
			}
		}
	}
	switch {
	case worseBy > d.Bound:
		return verdictWorse, change, noise
	case dominates && worseBy < 0:
		return verdictBetter, change, noise
	case noise > d.Bound:
		return verdictUnresolved, change, noise
	case worseBy < -d.Bound:
		return verdictBetter, change, noise
	default:
		return verdictWithin, change, noise
	}
}

// compareSets prints one row per (metric, workload) and reports whether the
// new set is acceptable: nothing worse, and no larger share of failed ops.
// Comparing two sets made from the same code is the A/A check: it passes
// when every row is within bound and none is unresolved.
func compareSets(c *contract, old, new *suiteFile, w io.Writer) (ok bool) {
	ok = true
	counts := map[string]int{}
	fmt.Fprintf(w, "%-12s %-16s %-5s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, wl := range c.Workloads {
		for _, d := range c.EndToEnd {
			ov, nv := old.metricRuns(wl.Name, d.Name), new.metricRuns(wl.Name, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing from one of the sets\n", wl.Name, d.Name)
				ok = false
				continue
			}
			verdict, change, noise := judge(d, ov, nv)
			counts[verdict]++
			if verdict == verdictWorse {
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-16s %-5s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				wl.Name, d.Name, d.Unit, median(ov), median(nv), 100*change, 100*noise, 100*d.Bound, verdict)
		}
		fo, fn := failedShare(old, wl.Name), failedShare(new, wl.Name)
		note := "same or smaller"
		if fn > fo {
			note, ok = "LARGER", false
		}
		fmt.Fprintf(w, "%-12s failed share     %.6g -> %.6g  %s\n", wl.Name, fo, fn, note)
	}
	fmt.Fprintf(w, "\nexact counts (traced pass):\n")
	for _, wl := range c.Workloads {
		lo, ln := tracedLayers(old, wl.Name), tracedLayers(new, wl.Name)
		for _, name := range exactCounts {
			state := "same"
			if lo[name] != ln[name] {
				state = "DIFFERENT"
			}
			fmt.Fprintf(w, "%-12s %-24s %16.0f %16.0f  %s\n", wl.Name, name, lo[name], ln[name], state)
		}
	}
	fmt.Fprintf(w, "\n%d better, %d within bound, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved])
	return ok
}

func failedShare(sf *suiteFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range sf.Timed {
		if r.Workload == workload {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func tracedLayers(sf *suiteFile, workload string) map[string]float64 {
	for _, r := range sf.Traced {
		if r.Workload == workload {
			return r.Layers
		}
	}
	return nil
}
