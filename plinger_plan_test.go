package plinger

import (
	"bytes"
	"testing"

	"plinger/internal/core"
	"plinger/internal/obs"
	"plinger/internal/spectra"
)

// TestSpectrumPlan pins what a request resolves to, without evolving a mode.
func TestSpectrumPlan(t *testing.T) {
	m := scdmModel(t)
	bruteKs := spectra.ClGrid(60, m.Tau0(), 60)
	bruteLMax := int(1.5*bruteKs[len(bruteKs)-1]*m.Tau0()) + 60
	cases := []struct {
		name    string
		o       SpectrumOptions
		kRefine int
		refined bool // KsRun shorter than Ks
		splined bool // LsProj shorter than Ls
		lmax    int
		gauge   core.Gauge
		adapt   bool
		project projection
		kBatch  int
	}{
		{"stock 150/130 fast",
			SpectrumOptions{LMaxCl: 150, NK: 130, FastLOS: true, FastEvolve: true, KRefine: 6, LSpline: true, KBatch: 4},
			6, true, true, 24, core.ConformalNewtonian, false, projectLOSFast, 4},
		{"coarse grid not smaller",
			SpectrumOptions{LMaxCl: 40, NK: 24, FastLOS: true, KRefine: 6},
			1, false, false, 24, core.ConformalNewtonian, false, projectLOSFast, 0},
		{"lspline on few multipoles",
			SpectrumOptions{LMaxCl: 40, NK: 60, Ls: []int{2, 5, 10, 20, 40}, FastLOS: true, LSpline: true},
			1, false, false, 24, core.ConformalNewtonian, false, projectLOSFast, 0},
		{"brute",
			SpectrumOptions{LMaxCl: 60, NK: 60, Method: "brute"},
			1, false, false, bruteLMax, core.Synchronous, true, projectBrute, 0},
		{"brute polarization",
			SpectrumOptions{LMaxCl: 60, NK: 60, Method: "brute", Polarization: true},
			1, false, false, bruteLMax, core.Synchronous, true, projectPolarization, 0},
		{"exact los",
			SpectrumOptions{LMaxCl: 150, NK: 130},
			1, false, false, 24, core.ConformalNewtonian, false, projectLOS, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.o.Validate(); err != nil {
				t.Fatal(err)
			}
			p := m.plan(c.o)
			if len(p.ks) != c.o.NK {
				t.Fatalf("quadrature grid has %d points, want NK = %d", len(p.ks), c.o.NK)
			}
			if p.kRefine != c.kRefine {
				t.Errorf("kRefine %d, want %d", p.kRefine, c.kRefine)
			}
			if got := len(p.ksRun) < len(p.ks); got != c.refined {
				t.Errorf("evolves %d of %d wavenumbers, want refined = %v", len(p.ksRun), len(p.ks), c.refined)
			}
			if !c.refined && len(p.ksRun) != len(p.ks) {
				t.Errorf("unrefined plan evolves %d wavenumbers, want all %d", len(p.ksRun), len(p.ks))
			}
			if got := len(p.lsProj) < len(p.ls); got != c.splined {
				t.Errorf("projects %d of %d multipoles, want splined = %v", len(p.lsProj), len(p.ls), c.splined)
			}
			if p.mode.LMax != c.lmax || p.mode.Gauge != c.gauge || p.mode.KBatch != c.kBatch {
				t.Errorf("mode LMax %d gauge %v KBatch %d, want %d %v %d",
					p.mode.LMax, p.mode.Gauge, p.mode.KBatch, c.lmax, c.gauge, c.kBatch)
			}
			if p.mode.KeepSources != (c.gauge == core.ConformalNewtonian) || p.mode.FastEvolve != c.o.FastEvolve {
				t.Errorf("mode KeepSources %v FastEvolve %v", p.mode.KeepSources, p.mode.FastEvolve)
			}
			if p.adaptLMax != c.adapt || p.project != c.project {
				t.Errorf("adaptLMax %v project %d, want %v %d", p.adaptLMax, p.project, c.adapt, c.project)
			}
		})
	}
}

// planDowngrades scrapes plinger_plan_downgrades_total{knob} off the
// process-wide registry.
func planDowngrades(t *testing.T, knob string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := obs.FindSample(samples, "plinger_plan_downgrades_total", map[string]string{"knob": knob})
	if s == nil {
		t.Fatalf("no plinger_plan_downgrades_total{knob=%q} sample", knob)
	}
	return s.Value
}

// TestPlanDowngradesCounted: a request whose KRefine and LSpline the plan
// both drops shows as one downgrade of each on /metrics.
func TestPlanDowngradesCounted(t *testing.T) {
	m := scdmModel(t)
	kBefore, lBefore := planDowngrades(t, "krefine"), planDowngrades(t, "lspline")
	if _, err := m.ComputeSpectrum(SpectrumOptions{
		LMaxCl: 40, NK: 24, Ls: []int{2, 5, 10, 20, 40}, FastLOS: true, KRefine: 6, LSpline: true,
	}); err != nil {
		t.Fatal(err)
	}
	if d := planDowngrades(t, "krefine") - kBefore; d != 1 {
		t.Errorf("krefine downgrades went up by %g, want 1", d)
	}
	if d := planDowngrades(t, "lspline") - lBefore; d != 1 {
		t.Errorf("lspline downgrades went up by %g, want 1", d)
	}
}
