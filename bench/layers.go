package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"plinger"
	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/dispatch"
	"plinger/internal/ode"
	"plinger/internal/recomb"
	"plinger/internal/serve"
	"plinger/internal/specfunc"
	"plinger/internal/spectra"
	"plinger/internal/thermo"
)

// The traced pass. Every span here is recorded by the benchmark around a
// call into a layer's public function; nothing inside the program is
// touched. Timings come from those spans, counts from the values the calls
// return.

// stackProbe is the layer stack built by hand through each layer's public
// constructor, the way plinger.New and the first fast sweep build it, so
// each build has a span of its own.
type stackProbe struct {
	rec    *recorder
	cfg    plinger.Config
	cm     *core.Model
	prim   spectra.Primordial
	layers map[string]float64
}

// Op ids of the traced pass. Spans of one op share its id; the ranges keep
// the kinds of op apart in a span dump.
const (
	opProbe    = 0         // spans that belong to no replayed op
	opStaged   = 1         // + i: staged sweep replays
	opOnPool   = 1_000     // + i: the same request staged on the pool (sweep_mp)
	opProbeHit = 2_000_000 // + i: the serve probe's loopback hits
	opReplay   = 3_000_000 // + i: the traced replay of the workload's own traffic
)

// probeStack builds the stack for cfg and, cold, the Bessel table the sweep
// o projects with. It must run before anything else in the process warms
// the process-wide Bessel cache.
func probeStack(cfg plinger.Config, o plinger.SpectrumOptions, nproc int) (*stackProbe, error) {
	p := &stackProbe{rec: newRecorder(), cfg: cfg, layers: map[string]float64{}}
	rec := p.rec
	params := cosmology.Params{
		H: cfg.H, OmegaC: cfg.OmegaC, OmegaB: cfg.OmegaB, OmegaLambda: cfg.OmegaLambda,
		TCMB: cfg.TCMB, YHe: cfg.YHe, NNuMassless: cfg.NNuMassless,
		NNuMassive: cfg.NNuMassive, MNuEV: cfg.MNuEV, SpectralIndex: cfg.SpectralIndex,
	}
	sp := rec.start("cosmology.build", opProbe, noSpan)
	var bg *cosmology.Background
	var err error
	if cfg.Flatten {
		bg, err = cosmology.NewFlattened(params)
	} else {
		bg, err = cosmology.New(params)
	}
	p.layers["cosmology.build_ms"] = sp.end()
	if err != nil {
		return nil, err
	}
	// thermo.New runs recomb.Compute itself; the standalone call gives
	// recombination a span of its own, and thermo.build_ms is the whole of
	// thermo.New, recombination included.
	sp = rec.start("recomb.compute", opProbe, noSpan)
	_, err = recomb.Compute(bg, recomb.Options{})
	p.layers["recomb.compute_ms"] = sp.end()
	if err != nil {
		return nil, err
	}
	sp = rec.start("thermo.build", opProbe, noSpan)
	th, err := thermo.New(bg, recomb.Options{})
	p.layers["thermo.build_ms"] = sp.end()
	if err != nil {
		return nil, err
	}
	p.cm = core.NewModel(bg, th)
	sp = rec.start("core.eval_tables", opProbe, noSpan)
	p.cm.EnsureEvalTables(dispatch.ParallelFor)
	p.layers["core.eval_tables_ms"] = sp.end()
	n := cfg.SpectralIndex
	if n == 0 {
		n = 1
	}
	p.prim = spectra.DefaultPrimordial(n)

	// The cold Bessel build, for the ladder this workload's sweep (or, on
	// sweep_brute, a fast request of the same size) would project.
	pl := planSweep(p.cm, o)
	sp = rec.start("specfunc.bessel_build", opProbe, noSpan)
	tbl := spectra.PrewarmBesselTable(pl.lsProj, pl.ks[len(pl.ks)-1], bg.Tau0())
	p.layers["specfunc.bessel_build_ms"] = sp.end()
	rows := tbl.Ls()
	nodes := math.Ceil(tbl.Xmax/tbl.H) + 1
	p.layers["specfunc.bessel_rows"] = float64(len(rows))
	// Computed from rows x grid nodes x three kernels x 8 bytes, not read
	// from the allocator.
	p.layers["specfunc.bessel_bytes"] = float64(len(rows)) * nodes * 3 * 8
	row, _ := tbl.Row(rows[len(rows)/2])
	const evals = 2_000_000
	step := tbl.Xmax / evals
	sink := 0.0
	sp = rec.start("specfunc.bessel_eval", opProbe, noSpan)
	for i := 0; i < evals; i++ {
		j, jp, q := row.Eval(float64(i) * step)
		sink += j + jp + q
	}
	p.layers["specfunc.bessel_eval_ns"] = sp.end() * 1e6 / evals
	if math.IsNaN(sink) {
		return nil, fmt.Errorf("Bessel table row %d evaluates to NaN", rows[len(rows)/2])
	}
	return p, nil
}

// sweepPlan is the facade's resolution of a request, redone through the
// same public helpers: the k grid, the coarse evolution grid, the
// projection ladder.
type sweepPlan struct {
	brute   bool
	ls      []int
	lsProj  []int
	ks      []float64
	ksRun   []float64
	nk      int
	kRefine int
	lmax    int
	tauRec  float64
}

func planSweep(cm *core.Model, o plinger.SpectrumOptions) sweepPlan {
	pl := sweepPlan{brute: o.Method == "brute", ls: o.Ls, nk: o.NK, tauRec: cm.TH.TauRec()}
	if len(pl.ls) == 0 {
		pl.ls = spectra.DefaultLs(o.LMaxCl)
	}
	if pl.nk <= 0 {
		pl.nk = o.LMaxCl + 200
	}
	tau0 := cm.BG.Tau0()
	pl.ks = spectra.ClGrid(o.LMaxCl, tau0, pl.nk)
	pl.ksRun, pl.lsProj, pl.kRefine = pl.ks, pl.ls, 1
	if pl.brute {
		pl.lmax = int(1.5*pl.ks[len(pl.ks)-1]*tau0) + 60
		return pl
	}
	pl.lmax = 24
	if o.KRefine > 1 {
		pl.kRefine = spectra.SafeKRefine(o.KRefine, pl.nk, pl.ks[0], pl.ks[len(pl.ks)-1], pl.tauRec)
	}
	if pl.kRefine > 1 {
		if coarse := spectra.RefineCoarseGrid(pl.ks, pl.kRefine); len(coarse) < pl.nk {
			pl.ksRun = coarse
		} else {
			pl.kRefine = 1
		}
	}
	if o.LSpline {
		if coarse := spectra.SafeLSpline(pl.ls, pl.tauRec, tau0); coarse != nil {
			pl.lsProj = coarse
		}
	}
	return pl
}

// stageStats is what one staged sweep returned besides its spectrum.
type stageStats struct {
	opMS    float64
	stageMS map[string]float64 // by span name
	run     *dispatch.RunStats
	ode     ode.Stats
	flops   float64
	modeMS  []float64
}

// stagedSpectrum replays ComputeSpectrum(o) stage by stage on the probe's
// model: plan, Bessel prewarm, dispatcher, sweep, source spline, projection,
// l spline, each under its own span. A stage the request does not use is
// still spanned, so its time reads as the few nanoseconds of doing nothing
// rather than as a missing number.
func (p *stackProbe) stagedSpectrum(o plinger.SpectrumOptions, op int) (*spectra.ClSpectrum, *stageStats, error) {
	rec, cm := p.rec, p.cm
	tau0 := cm.BG.Tau0()
	st := &stageStats{stageMS: map[string]float64{}}
	root := rec.start("op.sweep", op, noSpan)
	stage := func(name string, fn func() error) error {
		sp := rec.start(name, op, root)
		err := fn()
		st.stageMS[name] = sp.end()
		return err
	}

	var pl sweepPlan
	_ = stage("spectra.plan", func() error { pl = planSweep(cm, o); return nil })
	_ = stage("specfunc.bessel_prewarm", func() error {
		if o.FastLOS {
			spectra.PrewarmBesselTable(pl.lsProj, pl.ks[len(pl.ks)-1], tau0)
		}
		return nil
	})
	var d dispatch.Dispatcher
	cleanup := func() {}
	if err := stage("dispatch.connect", func() error {
		switch o.Transport {
		case "", "pool":
			d = &dispatch.Pool{Model: cm, Workers: o.Workers, AdaptLMax: pl.brute}
		default:
			md, c, err := dispatch.NewMP(cm, o.Transport, o.Workers)
			if err != nil {
				return err
			}
			md.AdaptLMax = pl.brute
			d, cleanup = md, c
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	mode := core.Params{LMax: pl.lmax, Gauge: core.Synchronous}
	if !pl.brute {
		mode = core.Params{
			LMax: pl.lmax, Gauge: core.ConformalNewtonian, KeepSources: true,
			FastEvolve: o.FastEvolve, KBatch: o.KBatch,
		}
	}
	var sw *spectra.Sweep
	err := stage("dispatch.sweep", func() (err error) {
		sw, st.run, err = spectra.RunSweepWith(d, pl.ksRun, mode)
		return err
	})
	_ = stage("dispatch.disconnect", func() error { cleanup(); return nil })
	if err != nil {
		return nil, nil, err
	}
	for _, r := range sw.Results {
		st.ode.Add(r.Stats)
		st.flops += r.Flops
		st.modeMS = append(st.modeMS, 1e3*r.Seconds)
	}
	if err := stage("spectra.source_spline", func() (err error) {
		if pl.kRefine > 1 && len(pl.ksRun) < pl.nk {
			sw, err = sw.RefineK(pl.nk, pl.tauRec)
		}
		return err
	}); err != nil {
		return nil, nil, err
	}
	var cl *spectra.ClSpectrum
	if err := stage("spectra.project", func() (err error) {
		switch {
		case pl.brute:
			cl, err = sw.Cl(pl.ls, p.prim, p.cfg.TCMB)
		case o.FastLOS:
			cl, err = sw.ClLOSFast(pl.lsProj, p.prim, p.cfg.TCMB, pl.tauRec)
		default:
			cl, err = sw.ClLOS(pl.ls, p.prim, p.cfg.TCMB, pl.tauRec)
		}
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := stage("spectra.lspline", func() (err error) {
		if len(pl.lsProj) != len(pl.ls) {
			cl, err = spectra.SplineCl(cl, pl.ls)
		}
		return err
	}); err != nil {
		return nil, nil, err
	}
	st.opMS = root.end()
	return cl, st, nil
}

// sameBits reports whether two spectra are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stagedReplay runs the staged sweep n times, compares each answer bitwise
// with the facade's and against the reference, and fills the dispatch, ode,
// core, spectra and plinger rows of the layer table.
func (p *stackProbe) stagedReplay(o plinger.SpectrumOptions, n int, facade []float64, ref *reference, rep *childReport) error {
	var opMS, cover []float64
	stageMS := map[string][]float64{}
	var last *stageStats
	matches := 1.0
	for i := 0; i < n; i++ {
		rep.Attempted++
		cl, st, err := p.stagedSpectrum(o, opStaged+i)
		if err != nil {
			return err
		}
		if !sameBits(cl.Cl, facade) {
			matches = 0
		}
		if ref != nil {
			if e, err := ref.relErr(cl.L, cl.Cl); err != nil {
				rep.fail("staged sweep: %v", err)
			} else if e > maxClRelErr {
				rep.fail("staged sweep deviates %.3g from reference %s", e, ref.Name)
			}
		}
		opMS = append(opMS, st.opMS)
		covered := 0.0
		for name, ms := range st.stageMS {
			stageMS[name] = append(stageMS[name], ms)
			covered += ms
		}
		cover = append(cover, covered/st.opMS)
		last = st
	}
	med := func(name string) float64 { return median(stageMS[name]) }
	L := p.layers
	L["dispatch.sweep_ms"] = med("dispatch.sweep")
	L["spectra.source_spline_ms"] = med("spectra.source_spline")
	L["spectra.project_ms"] = med("spectra.project")
	L["spectra.lspline_ms"] = med("spectra.lspline")
	L["plinger.stage_cover"] = median(cover)
	L["plinger.staged_matches_facade"] = matches
	L["plinger.staged_op_ms"] = median(opMS)

	// Counts are those of the last replay; they repeat exactly.
	pl := planSweep(p.cm, o)
	run := last.run
	L["dispatch.modes"] = float64(run.Modes)
	L["dispatch.efficiency"] = run.Efficiency
	L["dispatch.bytes_moved"] = float64(run.BytesMoved)
	busyMax, busySum := 0.0, 0.0
	for _, wt := range run.Workers {
		busyMax = math.Max(busyMax, wt.Seconds)
		busySum += wt.Seconds
	}
	if busySum > 0 {
		L["dispatch.busy_imbalance"] = busyMax / (busySum / float64(len(run.Workers)))
		// The paper's Mflop/s per PE: modelled flops over busy seconds.
		L["core.mflops_per_worker"] = last.flops / busySum / 1e6
	}
	L["ode.steps"] = float64(last.ode.Steps)
	L["ode.rejected"] = float64(last.ode.Rejected)
	L["ode.rhs_evals"] = float64(last.ode.Evals)
	if tried := last.ode.Steps + last.ode.Rejected; tried > 0 {
		L["ode.accept_ratio"] = float64(last.ode.Steps) / float64(tried)
	}
	sort.Float64s(last.modeMS)
	L["core.mode_ms_p50"] = quantile(last.modeMS, 0.5)
	L["core.mode_ms_max"] = last.modeMS[len(last.modeMS)-1]
	L["core.flops"] = last.flops
	L["spectra.coarse_modes"] = float64(len(pl.ksRun))
	L["spectra.krefine_effective"] = float64(pl.kRefine)
	L["spectra.project_ls"] = float64(len(pl.lsProj))

	// The identical request on the shared-memory pool: on sweep_mp the
	// difference from dispatch.sweep_ms is what the transport costs; on
	// every other workload the request already ran there.
	L["dispatch.pool_ms_same_request"] = L["dispatch.sweep_ms"]
	if o.Transport != "" && o.Transport != "pool" {
		onPool := o
		onPool.Transport = ""
		var ms []float64
		for i := 0; i < n; i++ {
			_, st, err := p.stagedSpectrum(onPool, opOnPool+i)
			if err != nil {
				return err
			}
			ms = append(ms, st.stageMS["dispatch.sweep"])
		}
		L["dispatch.pool_ms_same_request"] = median(ms)
	}
	return nil
}

// memDelta measures allocation over a stretch of ops.
type memDelta struct{ m0 runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.m0)
	return d
}

func (d *memDelta) put(dst map[string]float64, ops int) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	n := float64(max(ops, 1))
	dst["proc.allocs_per_op"] = float64(m1.Mallocs-d.m0.Mallocs) / n
	dst["proc.bytes_per_op"] = float64(m1.TotalAlloc-d.m0.TotalAlloc) / n
}

// finish closes a traced pass: the collector's total pause over the whole
// process (a stretch of five small sweeps may see no collection at all), and
// the layer table and spans into the report.
func (p *stackProbe) finish(rep *childReport) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.layers["proc.gc_pause_ms"] = float64(m.PauseTotalNs) / 1e6
	// The cold class of the traced replay where the workload has one, else
	// what set-up measured: the cold first call, or the preload's misses.
	if _, has := p.layers["miss_p50_ms"]; !has {
		p.layers["miss_p50_ms"] = rep.Proc["miss_p50_ms"]
	}
	rep.Layers, rep.Spans = p.layers, p.rec.snapshot()
}

// tracedSweepPass is the traced pass of a sweep workload. m is the warm
// facade model and facade its answer to the workload's request.
func tracedSweepPass(w workload, a childArgs, nproc int, m *plinger.Model, facade *plinger.Spectrum, ref *reference, p *stackProbe, rep *childReport) error {
	if facade == nil {
		return fmt.Errorf("%s: the cold op failed, nothing to replay against: %v", w.Name, rep.Failures)
	}
	// Untraced ops first: the base of trace.overhead_x.
	var base, gaps samples
	for i := 0; i < w.TracedSweeps; i++ {
		t0 := time.Now()
		ms, _, _, ok := sweepOp(m, w.Sweep, ref, rep)
		gaps = append(gaps, msSince(t0)-ms)
		if ok {
			base = append(base, ms)
		}
	}
	if len(base) == 0 {
		return fmt.Errorf("%s: every untraced op failed: %v", w.Name, rep.Failures)
	}
	mem := startMem()
	if err := p.stagedReplay(w.Sweep, w.TracedSweeps, facade.Cl, ref, rep); err != nil {
		return err
	}
	mem.put(p.layers, w.TracedSweeps)
	p.layers["trace.overhead_x"] = p.layers["plinger.staged_op_ms"] / median(base)
	p.layers["gen.sent"] = float64(rep.Attempted)
	p.layers["gen.rate_achieved"] = 1e3 / median(base)
	_, p.layers["gen.late_p99_ms"] = tail(sortedCopy(gaps), 0.99)
	_, p.layers["hit_p99_ms"] = tail(sortedCopy(base), 0.99)

	if err := p.matterPower(m, nproc); err != nil {
		return err
	}
	// The serving layer over a product of this workload's size.
	srv, err := startServer(w.Service, nproc, p.rec)
	if err != nil {
		return err
	}
	defer srv.stop()
	before := srv.svc.Stats()
	cfg := plinger.SCDM()
	if err := p.serveProbes(srv, newRequest(serve.ClRequest{Config: &cfg}), false, w.ProbeLoops, a.Seed, rep); err != nil {
		return err
	}
	putStatsDelta(p.layers, before, srv.svc.Stats())
	p.finish(rep)
	return nil
}

func sortedCopy(s []float64) []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// matterPower spans the P(k) product (the daemon's /v1/pk at PkNK 40) on
// the facade model: the synchronous-gauge sweep the C_l path never runs.
func (p *stackProbe) matterPower(m *plinger.Model, nproc int) error {
	sp := p.rec.start("spectra.matter_power", opProbe, noSpan)
	_, err := m.MatterPower(plinger.MatterPowerOptions{NK: serve.DefaultDefaults().PkNK, Workers: nproc})
	p.layers["spectra.matter_power_ms"] = sp.end()
	return err
}

// putStatsDelta writes the Service.Stats() counters gained between two
// snapshots.
func putStatsDelta(dst map[string]float64, a, b serve.Stats) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	dst["serve.hits"] = d(a.Hits, b.Hits)
	dst["serve.misses"] = d(a.Misses, b.Misses)
	dst["serve.coalesced"] = d(a.Coalesced, b.Coalesced)
	dst["serve.rejected"] = d(a.Rejected, b.Rejected)
	dst["serve.sweeps"] = d(a.Sweeps, b.Sweeps)
	dst["serve.model_builds"] = d(a.Models.Builds, b.Models.Builds)
	dst["serve.model_evictions"] = d(a.Models.Evictions, b.Models.Evictions)
	dst["serve.cache_evictions"] = d(a.Cache.Evictions, b.Cache.Evictions)
	dst["serve.bessel_tables"] = float64(specfunc.BesselCacheLen())
	// Useful work over attempts: sweeps run per request that found no
	// cached answer. Coalescing pushes it below one.
	if cold := dst["serve.misses"] + dst["serve.coalesced"]; cold > 0 {
		dst["serve.sweeps_per_cold"] = dst["serve.sweeps"] / cold
	}
}

// serveProbes measures the serving layer's pieces one by one against a live
// service: the request rq is made resident first (unless it already is), then
// validation, key derivation, in-process lookup, JSON encoding and the bare
// handler are timed in loops, a sequential loopback burst gives the socket's
// share, and a few never-seen keys give the miss path with and without a
// model build.
func (p *stackProbe) serveProbes(srv *server, rq request, resident bool, loops int, seed uint64, rep *childReport) error {
	ctx := context.Background()
	svc, L, rec := srv.svc, p.layers, p.rec
	d := svc.Defaults()
	var coldMS samples
	if !resident {
		t0 := time.Now()
		if _, _, err := svc.ComputeCl(ctx, rq.Req); err != nil {
			return fmt.Errorf("serve probe preload: %w", err)
		}
		coldMS = append(coldMS, msSince(t0))
	}
	resp, meta, err := svc.ComputeCl(ctx, rq.Req)
	if err != nil || meta.Source != serve.SourceCache {
		return fmt.Errorf("serve probe: resident key answered from %q, err %v", meta.Source, err)
	}

	perCallUS := func(name string, n int, fn func()) {
		sp := rec.start(name, opProbe, noSpan)
		for i := 0; i < n; i++ {
			fn()
		}
		L[name+"_us"] = sp.end() * 1e3 / float64(n)
	}
	perCallUS("serve.validate", loops, func() { _ = rq.Req.Validate() })
	perCallUS("serve.key", loops, func() { _ = rq.Req.Key(d) })
	perCallUS("serve.lookup", loops, func() { _, _, _ = svc.ComputeCl(ctx, rq.Req) })
	var encoded []byte
	perCallUS("serve.encode", loops/10, func() { encoded, _ = json.Marshal(resp) })
	L["serve.response_bytes"] = float64(len(encoded))

	// The handler with no socket: request decode, lookup, envelope encode.
	h := svc.Handler()
	var handlerNS int64
	for i := 0; i < loops/10; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/cl", bytes.NewReader(rq.Body))
		rw := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		handlerNS += time.Since(t0).Nanoseconds()
		if rw.Code != http.StatusOK {
			return fmt.Errorf("serve probe: handler answered %d", rw.Code)
		}
	}
	L["serve.handler_us"] = float64(handlerNS) / 1e3 / float64(loops/10)

	// One client, one connection, no contention: what the socket adds.
	// Each request's client-side span has the server-side handler span as
	// its child, so its self time is the network and HTTP machinery.
	c := newClient(1)
	defer c.CloseIdleConnections()
	first := len(rec.snapshot())
	for i := 0; i < loops/20; i++ {
		op := opProbeHit + i
		sp := rec.start("op.probe_hit", op, noSpan)
		status, _, err := post(c, srv.url, rq.Body, op, sp)
		sp.end()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("serve probe: loopback hit: status %d, err %v", status, err)
		}
	}
	L["serve.net_us"] = medianSelfUS(rec.snapshot(), first, "op.probe_hit")

	// Never-seen keys, in pairs on fresh cosmologies: the first of a pair
	// has to build the model, the second (one more k point, the same cost
	// to within a percent) finds it resident; the difference is the build.
	base := rq.Req
	nk := base.NK
	if nk == 0 {
		nk = d.NK
	}
	var residentMS, buildMS samples
	r := newRand(seed, streamMixed, 1<<40)
	for i := 0; i < 3; i++ {
		cfg := sampleCosmology(r)
		cold := base
		cold.Config, cold.NK = &cfg, nk+20
		fresh, err := p.timedMiss(svc, cold, "serve.miss_new_model", rep)
		if err != nil {
			return err
		}
		cold.NK++
		resident, err := p.timedMiss(svc, cold, "serve.miss_inproc", rep)
		if err != nil {
			return err
		}
		residentMS = append(residentMS, resident)
		buildMS = append(buildMS, fresh-resident)
		coldMS = append(coldMS, fresh, resident)
	}
	L["serve.miss_inproc_ms"] = median(residentMS)
	L["serve.model_build_ms"] = median(buildMS)
	if _, has := L["serve.miss_tail_ms"]; !has {
		_, L["serve.miss_tail_ms"] = tail(sortedCopy(coldMS), 0.99)
	}
	return nil
}

// medianSelfUS is the median self time, in microseconds, of the spans called
// name recorded at index first or later. Parent indices are positions in the
// whole recording, so self times are taken over all of it.
func medianSelfUS(spans []span, first int, name string) float64 {
	self := selfTimes(spans)
	var us []float64
	for i := first; i < len(spans); i++ {
		if spans[i].Name == name {
			us = append(us, float64(self[i])/1e3)
		}
	}
	return median(us)
}

// timedMiss computes one never-seen key in process under a span.
func (p *stackProbe) timedMiss(svc *serve.Service, req serve.ClRequest, name string, rep *childReport) (float64, error) {
	rep.Attempted++
	sp := p.rec.start(name, opProbe, noSpan)
	resp, meta, err := svc.ComputeCl(context.Background(), req)
	ms := sp.end()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if meta.Source != serve.SourceCompute {
		return 0, fmt.Errorf("%s: expected a computed miss, got %q", name, meta.Source)
	}
	if _, err := (*reference)(nil).relErr(resp.L, resp.Cl); err != nil {
		rep.fail("%s: %v", name, err)
	}
	return ms, nil
}

// tracedServePass is the traced pass of a serve workload: the stack probe on
// the first hot cosmology, an untraced and then a traced replay of the
// workload's own traffic, the stock miss staged through the layers, and the
// serve-layer probes against the live service.
func tracedServePass(w workload, a childArgs, nproc int, rep *childReport) error {
	cfg := *hotSet(a.Seed, 1, w.HotLMaxCls[:1], w.Service)[0].Req.Config
	// What a cold miss computes: the stock product on the default ladder.
	stock := w.Sweep
	stock.Ls = nil
	stock.Workers = nproc
	p, err := probeStack(cfg, stock, nproc)
	if err != nil {
		return err
	}
	srv, hot, err := preload(w, a, nproc, p.rec, rep)
	if err != nil {
		return err
	}
	defer srv.stop()
	L := p.layers

	// The two replays draw different rounds of the same generator, so the
	// traced one's never-seen keys really are never seen.
	replay := func(rec *recorder, round, opBase int) map[string]float64 {
		if w.Kind == kindServeHot {
			return hotRound(srv, hot, a, round, nproc, 0, rec, opBase, w.TracedHot, rep)
		}
		seconds := float64(w.TracedCold) / (w.Mixed.RatePerS * w.Mixed.ColdShare)
		return mixedRound(srv, hot, mixedSchedule(a.Seed, a.Proc, round, seconds, w.Mixed, len(hot.reqs)), nproc, rec, opBase, rep)
	}
	base := replay(nil, 1000, 0)
	before := srv.svc.Stats()
	mem := startMem()
	traced := replay(p.rec, 1001, opReplay)
	mem.put(L, int(traced["ops"]))
	L["trace.overhead_x"] = traced["hit_p50_ms"] / base["hit_p50_ms"]
	L["gen.sent"] = traced["gen.sent"]
	L["gen.rate_achieved"] = traced["gen.sent"] / traced["round_s"]
	L["gen.late_p99_ms"] = traced["gen.late_p99_ms"]
	L["hit_p99_ms"] = traced["hit_p99_ms"]
	if v, has := traced["serve.miss_tail_ms"]; has {
		L["serve.miss_tail_ms"], L["miss_p50_ms"] = v, traced["miss_p50_ms"]
	}

	facadeModel, err := plinger.New(cfg)
	if err != nil {
		return err
	}
	facade, err := facadeModel.ComputeSpectrum(stock)
	if err != nil {
		return err
	}
	if err := p.stagedReplay(stock, w.TracedSweeps, facade.Cl, nil, rep); err != nil {
		return err
	}
	if err := p.matterPower(facadeModel, nproc); err != nil {
		return err
	}
	if err := p.serveProbes(srv, hot.reqs[0], true, w.ProbeLoops, a.Seed, rep); err != nil {
		return err
	}
	putStatsDelta(L, before, srv.svc.Stats())
	p.finish(rep)
	return nil
}
