package plinger

import (
	"math"
	"slices"
	"strings"
	"testing"

	"plinger/internal/spectra"
)

func TestSpectrumOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    SpectrumOptions
		want string // "" means valid
	}{
		{"zero defaults", SpectrumOptions{}, ""},
		{"typical", SpectrumOptions{LMaxCl: 60, NK: 60, FastLOS: true, KRefine: 6}, ""},
		{"brute", SpectrumOptions{LMaxCl: 20, NK: 40, Method: "brute", Polarization: true}, ""},
		{"explicit ls", SpectrumOptions{LMaxCl: 30, Ls: []int{2, 10, 30}}, ""},
		{"all transports", SpectrumOptions{Transport: "tcp"}, ""},
		{"negative LMaxCl", SpectrumOptions{LMaxCl: -1}, "LMaxCl"},
		{"LMaxCl below quadrupole", SpectrumOptions{LMaxCl: 1}, "quadrupole"},
		{"negative NK", SpectrumOptions{NK: -5}, "NK"},
		{"tiny NK", SpectrumOptions{NK: 2}, "NK"},
		{"negative LMax", SpectrumOptions{LMax: -3}, "LMax"},
		{"negative Workers", SpectrumOptions{Workers: -1}, "Workers"},
		{"negative KRefine", SpectrumOptions{KRefine: -2}, "KRefine"},
		{"monopole requested", SpectrumOptions{Ls: []int{0, 2}}, "quadrupole"},
		{"l beyond LMaxCl", SpectrumOptions{LMaxCl: 20, Ls: []int{2, 40}}, "exceeds"},
		{"unknown method", SpectrumOptions{Method: "magic"}, "method"},
		{"los polarization", SpectrumOptions{Polarization: true}, "polarization"},
		{"brute fastlos", SpectrumOptions{Method: "brute", FastLOS: true}, "FastLOS"},
		{"brute krefine", SpectrumOptions{Method: "brute", KRefine: 4}, "KRefine"},
		{"brute fastevolve", SpectrumOptions{Method: "brute", FastEvolve: true}, "FastEvolve"},
		{"los fastevolve", SpectrumOptions{FastEvolve: true, FastLOS: true, KRefine: 6}, ""},
		{"los lspline", SpectrumOptions{FastLOS: true, LSpline: true}, ""},
		{"los kbatch", SpectrumOptions{KBatch: 8, FastEvolve: true}, ""},
		{"duplicate ls", SpectrumOptions{LMaxCl: 30, Ls: []int{2, 10, 10, 30}}, "duplicate"},
		{"unsorted ls", SpectrumOptions{LMaxCl: 30, Ls: []int{2, 30, 10}}, "increasing"},
		{"l beyond default LMaxCl", SpectrumOptions{Ls: []int{2, 400}}, "exceeds"},
		{"negative kbatch", SpectrumOptions{KBatch: -2}, "KBatch"},
		{"kbatch beyond cap", SpectrumOptions{KBatch: 64}, "KBatch"},
		{"lspline without fastlos", SpectrumOptions{LSpline: true}, "FastLOS"},
		{"brute lspline", SpectrumOptions{Method: "brute", FastLOS: false, LSpline: true}, "LSpline"},
		{"brute kbatch", SpectrumOptions{Method: "brute", KBatch: 4}, "KBatch"},
		{"unknown transport", SpectrumOptions{Transport: "telegraph"}, "transport"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.o.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("bad options accepted: %+v", c.o)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestMatterPowerOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    MatterPowerOptions
		want string
	}{
		{"zero defaults", MatterPowerOptions{}, ""},
		{"typical", MatterPowerOptions{KMin: 1e-3, KMax: 0.3, NK: 24, Amp: 2e-9}, ""},
		{"negative KMin", MatterPowerOptions{KMin: -1e-3}, "KMin"},
		{"negative KMax", MatterPowerOptions{KMax: -0.5}, "KMax"},
		{"inverted range", MatterPowerOptions{KMin: 0.5, KMax: 0.1}, "KMax"},
		{"KMin above the default KMax", MatterPowerOptions{KMin: 1}, "KMax"},
		{"KMax below the default KMin", MatterPowerOptions{KMax: 1e-4}, "KMax"},
		{"negative NK", MatterPowerOptions{NK: -1}, "NK"},
		{"tiny NK", MatterPowerOptions{NK: 2}, "NK"},
		{"negative Workers", MatterPowerOptions{Workers: -4}, "Workers"},
		{"negative Amp", MatterPowerOptions{Amp: -1}, "Amp"},
		{"NaN KMin", MatterPowerOptions{KMin: math.NaN()}, "KMin"},
		{"infinite KMax", MatterPowerOptions{KMax: math.Inf(1)}, "KMax"},
		{"NaN Amp", MatterPowerOptions{Amp: math.NaN()}, "Amp"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.o.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("bad options accepted: %+v", c.o)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestComputeMethodsValidateFirst checks the compute entry points reject bad
// options before doing any work (the daemon depends on fast-fail here).
func TestComputeMethodsValidateFirst(t *testing.T) {
	m := scdmModel(t)
	if _, err := m.ComputeSpectrum(SpectrumOptions{LMaxCl: -7}); err == nil {
		t.Fatal("negative LMaxCl accepted")
	}
	if _, err := m.ComputeSpectrum(SpectrumOptions{NK: 1}); err == nil {
		t.Fatal("degenerate NK accepted")
	}
	if _, err := m.MatterPower(MatterPowerOptions{NK: -3}); err == nil {
		t.Fatal("negative NK accepted")
	}
	if _, err := m.MatterPower(MatterPowerOptions{KMin: 0.4, KMax: 0.2}); err == nil {
		t.Fatal("inverted k range accepted")
	}
}

// TestFacadeRejectsBadInputs: the facade entry points outside the two
// options' Validate reject a negative or non-finite input with an error
// naming it, instead of running on a default, panicking, or returning a
// NaN result with a nil error.
func TestFacadeRejectsBadInputs(t *testing.T) {
	m := scdmModel(t)
	ls := []int{2, 10, 20, 40}
	cl := []float64{1e-10, 2e-11, 6e-12, 1.5e-12}
	spec := func() *Spectrum {
		inner := &spectra.ClSpectrum{L: ls, Cl: slices.Clone(cl), TCMB: 2.726}
		return &Spectrum{L: ls, Cl: slices.Clone(cl), inner: inner}
	}
	cobe := func(q float64) func() error {
		return func() error {
			_, err := spec().NormalizeCOBE(q)
			return err
		}
	}
	skyMap := func(tcmb float64, o SkyMapOptions) func() error {
		return func() error {
			_, err := MakeSkyMap(spec(), tcmb, o)
			return err
		}
	}
	mode := func(o ModeOptions) func() error {
		return func() error {
			_, err := m.EvolveMode(o)
			return err
		}
	}
	parallel := func(o ParallelOptions) func() error {
		return func() error {
			_, err := m.RunParallel(o)
			return err
		}
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"COBE Q zero", cobe(0), "Q"},
		{"COBE Q NaN", cobe(math.NaN()), "Q"},
		{"COBE Q negative", cobe(-18), "Q"},
		{"mode LMax negative", func() error {
			_, err := m.EvolveMode(ModeOptions{K: 0.05, LMax: -5})
			return err
		}, "LMax"},
		{"mode TauEnd negative", func() error {
			_, err := m.EvolveMode(ModeOptions{K: 0.05, TauEnd: -1})
			return err
		}, "TauEnd"},
		{"parallel LMax negative", func() error {
			_, err := m.RunParallel(ParallelOptions{KValues: []float64{0.05}, LMax: -3})
			return err
		}, "LMax"},
		{"mode RTol negative", mode(ModeOptions{K: 0.05, RTol: -1}), "RTol"},
		{"mode RTol NaN", mode(ModeOptions{K: 0.05, RTol: math.NaN()}), "RTol"},
		{"mode RTol Inf", mode(ModeOptions{K: 0.05, RTol: math.Inf(1)}), "RTol"},
		{"mode RTol 0.5", mode(ModeOptions{K: 0.05, RTol: 0.5}), "RTol"},
		{"mode K zero", mode(ModeOptions{}), "K"},
		{"mode K negative", mode(ModeOptions{K: -0.05}), "K"},
		{"mode K NaN", mode(ModeOptions{K: math.NaN()}), "K"},
		{"mode K Inf", mode(ModeOptions{K: math.Inf(1)}), "K"},
		{"parallel RTol 2", parallel(ParallelOptions{KValues: []float64{0.05}, RTol: 2}), "RTol"},
		{"parallel RTol negative", parallel(ParallelOptions{KValues: []float64{0.05}, RTol: -1}), "RTol"},
		{"parallel KValues NaN", parallel(ParallelOptions{KValues: []float64{0.05, math.NaN()}}), "KValues[1]"},
		{"parallel KValues zero", parallel(ParallelOptions{KValues: []float64{0}}), "KValues[0]"},
		{"parallel KValues Inf", parallel(ParallelOptions{KValues: []float64{math.Inf(1)}}), "KValues[0]"},
		{"full-sky N negative", skyMap(2.726, SkyMapOptions{N: -4}), "row"},
		{"patch side negative", skyMap(2.726, SkyMapOptions{Flat: true, SizeDeg: -1}), "patch side"},
		{"patch side NaN", skyMap(2.726, SkyMapOptions{Flat: true, SizeDeg: math.NaN()}), "patch side"},
		{"tcmb NaN", skyMap(math.NaN(), SkyMapOptions{}), "TCMB"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestGridCeiling: a grid size or hierarchy cutoff above the one ceiling is
// an error naming its field, from Validate and from the entry points that
// run it, and none panics (huge values used to reach make() in the grid
// builders). The ceiling itself validates.
func TestGridCeiling(t *testing.T) {
	m := scdmModel(t)
	const over = maxGrid + 1
	spectrum := func(o SpectrumOptions) func() error {
		return func() error {
			_, err := m.ComputeSpectrum(o)
			return err
		}
	}
	matterPower := func(o MatterPowerOptions) func() error {
		return func() error {
			_, err := m.MatterPower(o)
			return err
		}
	}
	mode := func(o ModeOptions) func() error {
		return func() error {
			_, err := m.EvolveMode(o)
			return err
		}
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"spectrum NK", SpectrumOptions{NK: over}.Validate, "NK = "},
		{"spectrum NK MaxInt", spectrum(SpectrumOptions{NK: math.MaxInt}), "NK = "},
		{"spectrum LMaxCl", SpectrumOptions{LMaxCl: over}.Validate, "LMaxCl = "},
		{"spectrum LMaxCl MaxInt", spectrum(SpectrumOptions{LMaxCl: math.MaxInt}), "LMaxCl = "},
		{"spectrum LMax", SpectrumOptions{LMax: over}.Validate, "LMax = "},
		{"spectrum brute LMax MaxInt", spectrum(SpectrumOptions{Method: "brute", LMax: math.MaxInt}), "LMax = "},
		{"matter power NK", MatterPowerOptions{NK: over}.Validate, "NK = "},
		{"matter power NK MaxInt", matterPower(MatterPowerOptions{NK: math.MaxInt}), "NK = "},
		{"mode LMax", mode(ModeOptions{K: 0.05, LMax: over}), "LMax = "},
		{"mode LMax MaxInt", mode(ModeOptions{K: 0.05, LMax: math.MaxInt}), "LMax = "},
		{"parallel LMax MaxInt", func() error {
			_, err := m.RunParallel(ParallelOptions{KValues: []float64{0.05}, LMax: math.MaxInt})
			return err
		}, "LMax = "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			err := c.run()
			if err == nil {
				t.Fatal("a size above the ceiling was accepted")
			}
			if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "ceiling") {
				t.Fatalf("error %q does not name %q and the ceiling", err, c.want)
			}
		})
	}
	at := SpectrumOptions{LMaxCl: maxGrid, NK: maxGrid, LMax: maxGrid}
	if err := at.Validate(); err != nil {
		t.Fatalf("the ceiling itself is refused: %v", err)
	}
	if err := (MatterPowerOptions{NK: maxGrid}).Validate(); err != nil {
		t.Fatalf("the ceiling itself is refused: %v", err)
	}
}
