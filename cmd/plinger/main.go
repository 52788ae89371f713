// Command plinger is the parallel driver: the master/worker decomposition
// of Appendix A over either in-process workers (like MPI on one node) or
// worker processes across hosts (like PVM across a cluster: the master
// listens and every worker dials it). All fan-out goes through the
// dispatch subsystem.
//
// Single process, n workers (in-process "chan" or strict-FIFO "fifo"):
//
//	plinger -np 8 -nk 64 -lmax 80 -unit1 plinger.txt -unit2 plinger.dat
//
// Across processes: start the master, then one plingerw per worker, on any
// host that reaches it:
//
//	plinger -transport tcp -addr :7070 -np 4 -nk 64
//	plingerw -master host:7070
//
// A worker registers as in plingerd's farm (internal/farm): its build must
// compute the master's bits (core.NumericsVersion), and it takes the model,
// the wavenumber grid and the mode from the sweep, so it is given none of
// the master's flags. The master waits up to five minutes for -np workers,
// then sweeps over those that came (none: it evolves every mode itself). A
// worker that dies mid-sweep is noticed when its connection drops and its
// block re-run by another. At the end the master drains its workers, which
// exit.
//
// With -cl the master assembles the angular power spectrum from the
// returned sources after the sweep, on the swept wavenumbers; -fastcl
// switches to the table-driven fast projection:
//
//	plinger -np 4 -nk 130 -lmaxcl 150 -cl -fastcl
//
// -fastevolve switches the per-mode integration itself to the fast
// evolution engine (growing hierarchy truncation, flattened background and
// thermodynamics tables, PI step control); it composes with -cl/-fastcl
// and with the plain sweep.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/dispatch"
	"plinger/internal/farm"
	"plinger/internal/spectra"
)

// waitWorkers is how long a tcp master waits for its -np workers to
// register: long enough to start them by hand, and as long as a plingerw
// keeps redialing a master that is not up yet (its -retry-window).
const waitWorkers = 5 * time.Minute

func main() {
	log.SetFlags(0)
	log.SetPrefix("plinger: ")
	var (
		np        = flag.Int("np", 2, "number of workers (master is extra)")
		nk        = flag.Int("nk", 32, "number of wavenumbers")
		kmin      = flag.Float64("kmin", 0.0, "smallest k (0: from lmaxcl grid)")
		kmax      = flag.Float64("kmax", 0.0, "largest k (0: from lmaxcl grid)")
		lmaxcl    = flag.Int("lmaxcl", 200, "target C_l multipole for the k grid")
		lmax      = flag.Int("lmax", 0, "hierarchy cutoff (0: adaptive per k)")
		gaugeName = flag.String("gauge", "synchronous", "gauge: synchronous or newtonian")
		transport = flag.String("transport", "chan", "chan | fifo (in-process) or tcp (plingerw workers)")
		addr      = flag.String("addr", "127.0.0.1:7070", "tcp address the master listens on")
		unit1     = flag.String("unit1", "", "ASCII summary output file")
		unit2     = flag.String("unit2", "", "binary moment output file")
		cl        = flag.Bool("cl", false, "assemble C_l from the sweep afterwards (forces newtonian gauge + sources)")
		fastcl    = flag.Bool("fastcl", false, "with -cl: table-driven fast projection instead of the exact reference")
		fastev    = flag.Bool("fastevolve", false, "fast evolution engine: growing hierarchy truncation + flattened tau-tables + PI step control")
	)
	flag.Parse()
	// The facade's grid ceiling: a larger grid or hierarchy fails in make().
	const maxGrid = 1 << 16
	if *np < 1 || *nk < 1 || *nk > maxGrid || *lmax < 0 || *lmax > maxGrid {
		log.Fatalf("-np %d must be at least 1, -nk %d lie in [1, %d] and -lmax %d in [0, %d]", *np, *nk, maxGrid, *lmax, maxGrid)
	}
	if *transport != "chan" && *transport != "fifo" && *transport != "tcp" {
		log.Fatalf("unknown transport %q", *transport)
	}

	model, err := core.Build(cosmology.SCDM())
	if err != nil {
		log.Fatal(err)
	}

	var ks []float64
	if *kmin > 0 && *kmax > *kmin {
		ks = spectra.LogGrid(*kmin, *kmax, *nk)
	} else {
		ks = spectra.ClGrid(*lmaxcl, model.BG.Tau0(), *nk)
	}
	// -lmax 0 requests the paper's per-k adaptive hierarchy: the global
	// cap covers the largest wavenumber and the dispatcher trims per mode.
	adapt := *lmax == 0
	gl := *lmax
	if gl == 0 {
		gl = dispatch.PerKLMax(ks[len(ks)-1], model.BG.Tau0(), 1<<20)
	}
	gauge := core.Synchronous
	if *gaugeName == "newtonian" {
		gauge = core.ConformalNewtonian
	}
	mode := core.Params{LMax: gl, Gauge: gauge, FastEvolve: *fastev}
	if *cl {
		// The line-of-sight assembly needs Newtonian sources; a short
		// hierarchy suffices (the projection supplies the multipoles).
		mode.Gauge = core.ConformalNewtonian
		mode.KeepSources = true
		if *lmax == 0 {
			mode.LMax = 24
			adapt = false
		}
	}

	// The output files are opened before the sweep, so a bad path costs
	// no computation, and written after it, in grid order.
	var closers []func() error
	openOut := func(name string) io.Writer {
		if name == "" {
			return nil
		}
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		closers = append(closers, func() error {
			if err := w.Flush(); err != nil {
				return err
			}
			return f.Close()
		})
		return w
	}
	u1, u2 := openOut(*unit1), openOut(*unit2)

	sw, st, err := sweep(*transport, *addr, *np, model, ks, mode, adapt)
	if err != nil {
		log.Fatal(err)
	}
	report(sw, st)
	if *cl {
		reportCl(sw, model.TH.TauRec(), *lmaxcl, *fastcl)
	}
	if err := dispatch.WriteRecords(u1, u2, sw); err != nil {
		log.Fatal(err)
	}
	for _, c := range closers {
		if err := c(); err != nil {
			log.Fatal(err)
		}
	}
}

// sweep runs the sweep over np workers: goroutines of this process, or on
// tcp plingerw processes registering with a farm supervisor that listens
// on addr, spawns none and drains them once the sweep is done.
func sweep(transport, addr string, np int, model *core.Model, ks []float64, mode core.Params, adapt bool) (*dispatch.Sweep, *dispatch.RunStats, error) {
	if transport != "tcp" {
		d, cleanup, err := dispatch.NewMP(model, transport, np)
		if err != nil {
			return nil, nil, err
		}
		defer cleanup()
		d.AdaptLMax = adapt
		return d.Run(context.Background(), ks, mode)
	}
	s, err := farm.New(farm.Options{Addr: addr, MinWorkers: np, WaitWorkers: waitWorkers, Logf: log.Printf})
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	fmt.Printf("master listening on %s; waiting for %d workers\n", s.Addr(), np)
	return s.Sweep(context.Background(), model, ks, mode, adapt)
}

// reportCl assembles and prints the angular power spectrum from a sweep
// that kept its sources, timing the post-processing: the exact reference
// projection, or the fast engine's shared Bessel tables.
func reportCl(dsw *dispatch.Sweep, tauRec float64, lmaxcl int, fast bool) {
	sw, err := spectra.FromResults(dsw.KValues, dsw.Results, dsw.Tau0)
	if err != nil {
		log.Fatal(err)
	}
	ls := spectra.DefaultLs(lmaxcl)
	prim := spectra.DefaultPrimordial(1.0)
	start := time.Now()
	var cl *spectra.ClSpectrum
	if fast {
		cl, err = sw.ClLOSFast(ls, prim, 2.726, tauRec)
	} else {
		cl, err = sw.ClLOS(ls, prim, 2.726, tauRec)
	}
	if err != nil {
		log.Fatal(err)
	}
	engine := "reference"
	if fast {
		engine = "fast-table"
	}
	fmt.Printf("C_l (%s engine, %d quadrature modes): %.3fs\n",
		engine, len(sw.KValues), time.Since(start).Seconds())
	if _, err := cl.NormalizeCOBE(18); err != nil {
		log.Fatalf("COBE normalization failed: %v", err)
	}
	fmt.Printf("  %6s %14s\n", "l", "dT_l [uK]")
	for i, l := range cl.L {
		if i%4 == 0 || i == len(cl.L)-1 {
			fmt.Printf("  %6d %14.2f\n", l, cl.BandPower(i))
		}
	}
}

func report(sw *dispatch.Sweep, st *dispatch.RunStats) {
	fmt.Printf("modes: %d  wallclock: %.2fs  total CPU: %.2fs  efficiency: %.1f%%  rate: %.1f Mflop/s\n",
		st.Modes, st.Wallclock, st.TotalCPU, 100*st.Efficiency, st.FlopRate/1e6)
	for _, w := range st.Workers {
		fmt.Printf("  worker %d: %d modes, %.2fs busy, %.0f Mflop\n",
			w.Rank, w.Modes, w.Seconds, w.Flops/1e6)
	}
	worst := 0.0
	for _, r := range sw.Results {
		if r.MaxConstraintResidual > worst {
			worst = r.MaxConstraintResidual
		}
	}
	fmt.Printf("worst Einstein constraint residual: %.2e\n", worst)
	fmt.Printf("moved %d payload bytes\n", st.BytesMoved)
}
