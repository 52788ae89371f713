package plinger

import (
	"strings"
	"testing"
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
		{"all transports", SpectrumOptions{Transport: "tcp", Schedule: "smallest-first"}, ""},
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
		{"unknown schedule", SpectrumOptions{Schedule: "alphabetical"}, "schedule"},
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
		{"unknown transport", MatterPowerOptions{Transport: "smoke"}, "transport"},
		{"unknown schedule", MatterPowerOptions{Schedule: "random"}, "schedule"},
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
