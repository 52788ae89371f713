package main

import (
	"fmt"
	"time"

	"plinger"
	"plinger/internal/serve"
)

type workloadKind int

const (
	kindSweep      workloadKind = iota // one caller looping Model.ComputeSpectrum
	kindServeHot                       // closed-loop hits over loopback HTTP
	kindServeMixed                     // open-loop hits beside cold misses
)

// workload is one named set of inputs. The table in workloads() is the
// benchmark's definition; BENCHMARK.json repeats the names and reasons and
// the tests hold the two together.
type workload struct {
	Name string
	Why  string
	Kind workloadKind

	// Sweep is the spectrum computation the workload is about: the timed
	// op itself on the sweep workloads, and on the serve workloads the
	// stock product a cold miss computes (staged in the traced pass).
	Sweep plinger.SpectrumOptions
	// Ref names the committed reference spectrum ops are checked against
	// (on the serve workloads: the SCDM canary request).
	Ref string

	// Service is the serving configuration: the daemon's stock one on the
	// serve workloads; on the sweep workloads the fast engine at the
	// workload's size, used only by the traced pass's serve-layer probes.
	Service serve.Defaults

	// Hot set shape and open-loop traffic (serve workloads).
	HotCosmologies int
	HotLMaxCls     []int
	Mixed          mixedSpec

	// Traced-pass replay sizes, and how many calls the serve-layer probes
	// average a microsecond-scale timing over.
	TracedSweeps int
	TracedHot    int
	TracedCold   int
	ProbeLoops   int
}

// Latency limits behind slo_ok_share. A sweep caller is a batch job; the
// limit there only catches a run that has gone badly wrong.
const (
	sloHotMS   = 5.0
	sloColdMS  = 500.0
	sloSweepMS = 5000.0
)

// maxClRelErr is the deviation from the reference beyond which an op counts
// as failed rather than merely inaccurate.
const maxClRelErr = 2e-2

// fastEngine is exactly what the daemon runs by default
// (serve.DefaultDefaults): FastLOS + FastEvolve + KRefine 6 + LSpline +
// KBatch 4, here at an explicit size.
func fastEngine(lmaxCl, nk int) plinger.SpectrumOptions {
	d := serve.DefaultDefaults()
	return plinger.SpectrumOptions{
		LMaxCl: lmaxCl, NK: nk, Ls: denseLs(lmaxCl),
		FastLOS: true, FastEvolve: true,
		KRefine: d.KRefine, LSpline: d.LSpline, KBatch: d.KBatch,
	}
}

// denseLs is every multipole 2..lmaxCl.
func denseLs(lmaxCl int) []int {
	ls := make([]int, 0, lmaxCl-1)
	for l := 2; l <= lmaxCl; l++ {
		ls = append(ls, l)
	}
	return ls
}

func serviceAt(lmaxCl, nk int) serve.Defaults {
	d := serve.DefaultDefaults()
	d.LMaxCl, d.NK = lmaxCl, nk
	return d
}

// workloads returns the five workloads, or their smoke-sized twins: the
// same code paths at LMaxCl <= 40 for the tier-1 test.
func workloads(smoke bool) []workload {
	paperL, paperNK := 1000, 1200
	bruteL, bruteNK := 60, 60
	stockL, stockNK := 150, 130
	hotCosmo, hotLs := 8, []int{150, 300}
	refPaper, refBrute, refStock, refCanary := "paper", "brute", "stock", "stock"
	sweeps, hot, cold, loops := 5, 2000, 40, 20000
	mixed := mixedSpec{RatePerS: 300, ColdShare: 0.02, RepeatAfter: int64(5 * time.Millisecond)}
	if smoke {
		paperL, paperNK = 40, 60
		bruteL, bruteNK = 20, 24
		stockL, stockNK = 40, 40
		hotCosmo, hotLs = 2, []int{30, 40}
		refPaper, refBrute, refStock, refCanary = "smoke_paper", "smoke_brute", "smoke_stock", "smoke_canary"
		sweeps, hot, cold, loops = 2, 100, 3, 1000
		mixed.RatePerS = 100
		mixed.ColdShare = 0.04
	}
	mp := fastEngine(stockL, stockNK)
	mp.Transport = "tcp"
	stock := fastEngine(stockL, stockNK)
	return []workload{
		{
			Name: "sweep_paper", Kind: kindSweep,
			Why:   "paper-scale fast-engine request (SCDM, every l to 1000): projection, source spline and Bessel tables share the wall with fast evolution, all far beyond cache",
			Sweep: fastEngine(paperL, paperNK), Ref: refPaper,
			Service: serviceAt(paperL, paperNK), TracedSweeps: sweeps, ProbeLoops: loops,
		},
		{
			Name: "sweep_brute", Kind: kindSweep,
			Why: "the paper's LINGER read-off: core RHS + ode stepping are the whole wall, per-k cost is skewed so scheduling shows, and every fast switch is bypassed",
			Sweep: plinger.SpectrumOptions{
				LMaxCl: bruteL, NK: bruteNK, Ls: denseLs(bruteL), Method: "brute",
			}, Ref: refBrute,
			Service: serviceAt(bruteL, bruteNK), TracedSweeps: sweeps, ProbeLoops: loops,
		},
		{
			Name: "sweep_mp", Kind: kindSweep,
			Why:   "the stock 150/130 request through the Appendix-A master/worker over the tcp wire: dispatch as message passing, the guard for collapsing executors and wires",
			Sweep: mp, Ref: refStock,
			Service: serviceAt(stockL, stockNK), TracedSweeps: sweeps, ProbeLoops: loops,
		},
		{
			Name: "serve_hot", Kind: kindServeHot,
			Why:   "closed-loop keep-alive clients reading 64 resident keys: all time is key, lookup, JSON encode and HTTP, sweeps do nothing",
			Sweep: stock, Ref: refCanary,
			Service: serviceAt(stockL, stockNK), HotCosmologies: hotCosmo, HotLMaxCls: hotLs,
			TracedSweeps: sweeps, TracedHot: hot, ProbeLoops: loops,
		},
		{
			Name: "serve_mixed", Kind: kindServeMixed,
			Why:   "open-loop Poisson arrivals, hits beside never-seen keys and their coalescing repeats: misses churn the LRU and model registry and take cores from hits",
			Sweep: stock, Ref: refCanary,
			Service: serviceAt(stockL, stockNK), HotCosmologies: hotCosmo, HotLMaxCls: hotLs,
			Mixed: mixed, TracedSweeps: sweeps, TracedHot: hot, TracedCold: cold, ProbeLoops: loops,
		},
	}
}

func findWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads(smoke) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
