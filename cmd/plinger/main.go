// Command plinger is the parallel driver: the master/worker decomposition
// of Appendix A over either in-process workers (like MPI on one node) or
// TCP across OS processes (like PVM across a cluster: the master listens
// and every worker dials it). All fan-out goes through the dispatch
// subsystem.
//
// Single process, n workers (in-process "chan" or strict-FIFO "fifo"):
//
//	plinger -np 8 -nk 64 -lmax 80 -unit1 plinger.txt -unit2 plinger.dat
//
// Across processes: start the master, then connect workers:
//
//	plinger -transport tcp -role master -addr :7070 -np 4 -nk 64
//	plinger -transport tcp -role worker -addr host:7070 -nk 64
//
// The master waits until all -np workers have joined. A worker dials once:
// started before the master listens, it exits with the refused dial. The
// worker must be given the same -nk/-kmin/-kmax so both sides agree on the
// wavenumber table (the paper broadcasts the rest at tag 1); a worker given
// a different -nk is refused at init, and so is one whose own hierarchy
// cutoff (-lmax, or the adaptive one of its grid) is below the master's.
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
	"plinger/internal/mp"
	"plinger/internal/mp/tcpmp"
	"plinger/internal/spectra"
)

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
		transport = flag.String("transport", "chan", "chan | fifo (in-process) or tcp")
		role      = flag.String("role", "master", "tcp role: master or worker")
		addr      = flag.String("addr", "127.0.0.1:7070", "tcp address")
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

	openOut := func(name string) io.Writer {
		if name == "" {
			return nil
		}
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		// flushed on exit
		deferred = append(deferred, func() { w.Flush(); f.Close() })
		return w
	}

	// The transports differ only in how the master's world is built.
	var d *dispatch.MP
	cleanup := func() {}
	switch {
	case *transport == "chan" || *transport == "fifo":
		if d, cleanup, err = dispatch.NewMP(model, *transport, *np); err != nil {
			log.Fatal(err)
		}
	case *transport == "tcp" && *role == "master":
		l, err := tcpmp.Listen(*addr, *np+1)
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		fmt.Printf("master listening on %s; waiting for %d workers\n", l.Addr(), *np)
		ep := l.Accept()
		d = &dispatch.MP{
			Model:         model,
			Endpoints:     []mp.Endpoint{ep},
			BytesMoved:    ep.BytesMoved,
			MasterOptions: dispatch.MasterOptions{Backend: "mp/tcp"},
		}
	case *transport == "tcp" && *role == "worker":
		ep, err := tcpmp.Dial(*addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("connected as rank %d of %d\n", ep.Rank(), ep.Size())
		if err := dispatch.Worker(ep, model, ks, mode, nil); err != nil && err != mp.ErrClosed {
			log.Fatal(err)
		}
		return
	case *transport == "tcp":
		log.Fatalf("unknown role %q", *role)
	default:
		log.Fatalf("unknown transport %q", *transport)
	}
	d.AdaptLMax = adapt
	d.ASCIIOut = openOut(*unit1)
	d.BinaryOut = openOut(*unit2)
	sw, st, err := d.Run(context.Background(), ks, mode)
	cleanup()
	if err != nil {
		log.Fatal(err)
	}
	report(sw, st)
	if *cl {
		reportCl(sw, model.TH.TauRec(), *lmaxcl, *fastcl)
	}
	for _, f := range deferred {
		f()
	}
}

var deferred []func()

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
