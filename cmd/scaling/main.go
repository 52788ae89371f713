// Command scaling regenerates Figure 1 of the paper: wallclock and total
// CPU time as a function of the number of processors for a fixed test
// workload, together with the ideal 1/P curve, the parallel efficiency
// ((total CPU)/(wallclock x processors), 95% in the paper) and the
// aggregate flop rate (the Section 5.1 table). It can also sweep the
// scheduling policies (the paper's largest-k-first trick) and the
// execution backends (shared-memory pool and every mp transport), all
// through the dispatch subsystem.
//
// Usage:
//
//	scaling [-np 1,2,4,8] [-nk 24] [-lmax 120] [-schedules] [-backends]
//	        [-fastevolve]
//
// -fastevolve ablates the fast evolution engine (growing hierarchy
// truncation + flattened tau-tables + PI step control) on the fixed
// workload at equal tolerance. The fast C_l pipeline is measured by the
// repository's benchmark (bench/), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"strconv"
	"strings"
	"time"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/dispatch"
	"plinger/internal/spectra"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")
	var (
		npList    = flag.String("np", "1,2,4,8", "comma-separated worker counts")
		nk        = flag.Int("nk", 24, "number of wavenumbers in the test run")
		lmax      = flag.Int("lmax", 120, "hierarchy cutoff cap")
		schedules = flag.Bool("schedules", false, "also sweep scheduling policies")
		backends  = flag.Bool("backends", false, "also sweep execution backends")
		fastev    = flag.Bool("fastevolve", false, "also ablate the fast evolution engine on the fixed workload")
	)
	flag.Parse()

	model, err := core.Build(cosmology.SCDM())
	if err != nil {
		log.Fatal(err)
	}
	ks := spectra.ClGrid(*lmax, model.BG.Tau0(), *nk)
	mode := core.Params{LMax: *lmax, Gauge: core.Synchronous}

	fmt.Printf("Figure 1: fixed workload of %d modes (lmax %d), largest-k-first\n", *nk, *lmax)
	fmt.Printf("%4s %12s %12s %11s %12s %12s\n",
		"np", "wall [s]", "CPU [s]", "eff [%]", "Mflop/s", "ideal [s]")
	var t1 float64
	for _, s := range strings.Split(*npList, ",") {
		np, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || np < 1 {
			log.Fatalf("bad worker count %q", s)
		}
		st := run(model, ks, mode, np, dispatch.LargestFirst, "chan")
		if t1 == 0 {
			t1 = st.Wallclock
		}
		fmt.Printf("%4d %12.3f %12.3f %11.1f %12.1f %12.3f\n",
			np, st.Wallclock, st.TotalCPU, 100*st.Efficiency,
			st.FlopRate/1e6, t1/float64(np))
	}

	if *schedules {
		fmt.Printf("\nscheduling ablation (4 workers): the paper computes the largest k first\n")
		fmt.Printf("%16s %12s %11s\n", "schedule", "wall [s]", "eff [%]")
		for _, sched := range []dispatch.Schedule{dispatch.LargestFirst, dispatch.InputOrder, dispatch.SmallestFirst} {
			st := run(model, ks, mode, 4, sched, "chan")
			fmt.Printf("%16s %12.3f %11.1f\n", sched, st.Wallclock, 100*st.Efficiency)
		}
	}

	if *backends {
		fmt.Printf("\nbackend ablation (4 workers): \"the choice of which library to use\n")
		fmt.Printf("has no effect on the efficiency of the code\" (Section 4)\n")
		fmt.Printf("%10s %12s %11s %14s\n", "backend", "wall [s]", "eff [%]", "payload [kB]")
		for _, tr := range []string{"pool", "chan", "fifo", "tcp"} {
			st := run(model, ks, mode, 4, dispatch.LargestFirst, tr)
			fmt.Printf("%10s %12.3f %11.1f %14.1f\n",
				st.Backend, st.Wallclock, 100*st.Efficiency,
				float64(st.BytesMoved)/1e3)
		}
	}

	if *fastev {
		fastEvolveAblation(model, ks, mode)
	}
}

// fastEvolveAblation times the fixed Figure-1 workload with the reference
// per-mode integration against the fast evolution engine (growing
// hierarchy truncation + flattened tau-tables + PI step control) at equal
// tolerance, single-worker so the per-mode speedup is not masked by load
// balance, and reports the worst relative transfer-function deviation.
func fastEvolveAblation(model *core.Model, ks []float64, mode core.Params) {
	fast := mode
	fast.FastEvolve = true

	start := time.Now()
	ref, err := spectra.RunSweep(model, mode, ks, 1, false)
	if err != nil {
		log.Fatal(err)
	}
	tRef := time.Since(start).Seconds()
	start = time.Now()
	fsw, err := spectra.RunSweep(model, fast, ks, 1, false)
	if err != nil {
		log.Fatal(err)
	}
	tFast := time.Since(start).Seconds()

	worst := 0.0
	var evalsRef, evalsFast int
	for i := range ref.Results {
		r, f := ref.Results[i], fsw.Results[i]
		evalsRef += r.Stats.Evals
		evalsFast += f.Stats.Evals
		scale := 0.0
		for _, v := range r.ThetaL {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			continue
		}
		for l := range r.ThetaL {
			if rel := math.Abs(f.ThetaL[l]-r.ThetaL[l]) / scale; rel > worst {
				worst = rel
			}
		}
	}
	fmt.Printf("\nfast evolution engine (1 worker, %d modes, equal RTol):\n", len(ks))
	fmt.Printf("%12s %12s %10s %14s %22s\n", "ref [s]", "fast [s]", "speedup", "RHS evals", "worst rel Theta_l")
	fmt.Printf("%12.3f %12.3f %9.2fx %6d->%6d %22.2e\n",
		tRef, tFast, tRef/tFast, evalsRef, evalsFast, worst)
}

// run executes the fixed workload on one dispatcher configuration.
func run(model *core.Model, ks []float64, mode core.Params, np int, sched dispatch.Schedule, backend string) *dispatch.RunStats {
	var d dispatch.Dispatcher
	cleanup := func() {}
	if backend == "pool" {
		d = &dispatch.Pool{Model: model, Workers: np, Schedule: sched}
	} else {
		mpd, c, err := dispatch.NewMP(model, backend, np)
		if err != nil {
			log.Fatal(err)
		}
		mpd.Schedule = sched
		d, cleanup = mpd, c
	}
	_, st, err := d.Run(context.Background(), ks, mode)
	cleanup()
	if err != nil {
		log.Fatal(err)
	}
	return st
}
