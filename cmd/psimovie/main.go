// Command psimovie regenerates the paper's MPEG movie as a PGM frame
// series: the conformal Newtonian potential psi on a comoving 100 Mpc
// square, evolving from the radiation era until shortly after recombination
// (conformal time 250 Mpc). The acoustic oscillations of the photon-baryon
// fluid are visible as rippling of the potential at early times.
//
// Usage:
//
//	psimovie [-box 100] [-n 128] [-frames 50] [-tauend 250] [-dir frames]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/sky"
	"plinger/internal/spectra"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psimovie: ")
	var (
		box    = flag.Float64("box", 100, "comoving box side in Mpc")
		n      = flag.Int("n", 128, "grid points per side (power of two)")
		frames = flag.Int("frames", 50, "number of frames")
		tauEnd = flag.Float64("tauend", 250, "final conformal time in Mpc")
		outDir = flag.String("dir", "frames", "output directory")
		seed   = flag.Int64("seed", 1995, "realization seed")
	)
	flag.Parse()

	model, err := core.Build(cosmology.SCDM())
	if err != nil {
		log.Fatal(err)
	}

	// The box needs transfer functions from its fundamental mode up to the
	// Nyquist frequency.
	kmin := 2 * math.Pi / *box
	kny := math.Pi * float64(*n) / *box
	ks := spectra.LogGrid(kmin*0.8, kny*1.1, 28)
	fmt.Printf("evolving %d modes (k = %.3f..%.2f Mpc^-1) to tau = %.0f Mpc\n",
		len(ks), ks[0], ks[len(ks)-1], *tauEnd)
	sweep, err := spectra.RunSweep(model, core.Params{
		LMax: 40, Gauge: core.ConformalNewtonian, KeepSources: true, TauEnd: *tauEnd,
	}, ks, 0, false)
	if err != nil {
		log.Fatal(err)
	}

	field, err := sky.NewPsiField(ks, sweep.Results, *n, *box, 1.0, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	// Fixed gray scale across frames so the decay of the potential shows.
	first, err := field.Frame(5.0)
	if err != nil {
		log.Fatal(err)
	}
	_, mx, _ := first.Stats()
	scale := 2.5 * mx
	for f := 0; f < *frames; f++ {
		tau := 5.0 + (*tauEnd-5.0)*float64(f)/float64(*frames-1)
		frame, err := field.Frame(tau)
		if err != nil {
			log.Fatal(err)
		}
		name := filepath.Join(*outDir, fmt.Sprintf("psi_%03d.pgm", f))
		out, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := frame.WritePGM(out, scale); err != nil {
			log.Fatal(err)
		}
		out.Close()
		if f%10 == 0 {
			_, _, rms := frame.Stats()
			fmt.Printf("frame %3d: tau = %6.1f Mpc (a = %.2e), rms = %.3g\n",
				f, tau, model.BG.AofTau(tau), rms)
		}
	}
	fmt.Printf("wrote %d frames to %s (encode with e.g. ffmpeg -i psi_%%03d.pgm)\n", *frames, *outDir)
}
