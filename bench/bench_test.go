package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"
)

// inProcess stands in for spawning a workload process: the smoke pass does
// not need fresh-process isolation, only every code path.
func inProcess(a childArgs) (*childReport, error) {
	a.SpawnedNS = time.Now().UnixNano()
	return runChild(a)
}

// TestSmoke runs all five workloads at tiny sizes, timed and traced, and
// requires every workload and metric BENCHMARK.json names to come out with a
// unit and a finite value, with no failed op. It is what keeps the harness
// from rotting under plain `go test ./...`. With -short (the race-detector
// targets) it keeps to a brief timed pass: the traced pass is ten times the
// work and adds no goroutine the timed one does not start.
func TestSmoke(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	seconds := 1.0
	if testing.Short() {
		seconds = 0.3
	}
	rc := runConfig{Seed: 1, Seconds: seconds, Procs: 1, Smoke: true, spawn: inProcess}
	if len(c.Workloads) != 5 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 5", len(c.Workloads))
	}
	for _, wl := range c.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			timed, err := runTimed(wl.Name, rc)
			if err != nil {
				t.Fatal(err)
			}
			type pass struct {
				res    *runResult
				traced bool
				defs   []metricDef
			}
			passes := []pass{{timed, false, c.EndToEnd}}
			var traced *runResult
			if !testing.Short() {
				if traced, err = runTraced(wl.Name, rc); err != nil {
					t.Fatal(err)
				}
				passes = append(passes, pass{traced, true, c.PerLayer})
			}
			for _, pass := range passes {
				if pass.res.Failed != 0 || pass.res.Attempted < 1 {
					t.Errorf("traced=%v: attempted %d, failed %d: %v", pass.traced, pass.res.Attempted, pass.res.Failed, pass.res.Failures)
				}
				line, err := pass.res.line(c, pass.traced)
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || len(line.Metrics) != len(pass.defs) {
					t.Errorf("traced=%v: correct %v, %d metrics, want %d", pass.traced, line.Correct, len(line.Metrics), len(pass.defs))
				}
				for _, d := range pass.defs {
					m := line.Metrics[d.Name]
					if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %g %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
					}
				}
			}
			// End-to-end metrics bound a relative change, so none may be 0.
			for _, d := range c.EndToEnd {
				if timed.Values[d.Name].Median <= 0 {
					t.Errorf("%s = %g, end-to-end metrics must be positive", d.Name, timed.Values[d.Name].Median)
				}
			}
			if got := len(timed.Values["req_per_s"].Values); got != rc.Procs*roundsPerProc {
				t.Errorf("req_per_s kept %d per-round values, want %d", got, rc.Procs*roundsPerProc)
			}
			if traced == nil {
				return
			}
			if traced.Layers["plinger.staged_matches_facade"] != 1 {
				t.Error("the staged replay is not bitwise equal to ComputeSpectrum")
			}
			if cover := traced.Layers["plinger.stage_cover"]; cover < 0.9 {
				t.Errorf("stage spans cover %.3f of the staged op, want >= 0.9", cover)
			}
			// The spans are part of the set -out writes.
			path := t.TempDir() + "/set.json"
			if err := writeSuite(path, &suiteFile{Timed: []*runResult{timed}, Traced: []*runResult{traced}}); err != nil {
				t.Fatal(err)
			}
			back, err := readSuite(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(back.Traced[0].Spans); got == 0 || got != len(traced.Spans) {
				t.Errorf("the set holds %d spans, the traced pass recorded %d", got, len(traced.Spans))
			}
		})
	}
}

// TestContractMatchesProgram holds BENCHMARK.json and the program's own
// workload table together, and checks the file against the limits the
// acceptance driver states.
func TestContractMatchesProgram(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(ws) != len(c.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(ws), len(c.Workloads))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if smoke := workloads(true)[i]; smoke.Sweep.LMaxCl > 40 || smoke.Name != w.Name {
			t.Errorf("%s: smoke twin is %s at LMaxCl %d, want the same name at <= 40", w.Name, smoke.Name, smoke.Sweep.LMaxCl)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if len(c.EndToEnd) != 8 || len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(c.EndToEnd), len(c.PerLayer))
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	for _, name := range exactCounts {
		if !seen[name] {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}

// TestOpenLoopCountsFromDueTime drives the open-loop generator against a
// stub that takes 20 ms a request. More arrivals are due at once than there
// are connections, so the later ones are sent late: their latency must
// include that wait, and the lateness must be reported.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const delay = 20 * time.Millisecond
	body := `{"source":"cache","elapsed_ms":0.1,"result":{"l":[2],"cl":[1]}}`
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		fmt.Fprint(w, body)
	}))
	defer stub.Close()
	want, _ := payload([]byte(body))
	hot := &hotState{reqs: []request{{Body: []byte(`{}`)}}, payloads: [][]byte{want}}
	const conns = 4
	n := 4 * conns
	sched := make([]arrival, n) // all hot, all due at once
	for i := range sched {
		sched[i].Class = classHot
	}
	rep := &childReport{}
	vals := mixedRound(&server{url: stub.URL}, hot, sched, conns, nil, 0, rep)
	if rep.Failed != 0 || rep.Attempted != n {
		t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
	}
	delayMS := float64(delay.Milliseconds())
	if p50 := vals["hit_p50_ms"]; p50 < 1.8*delayMS {
		t.Errorf("median latency %.1f ms: requests that waited a turn must count it (want >= %.0f)", p50, 1.8*delayMS)
	}
	if late := vals["gen.late_p99_ms"]; late < 0.8*delayMS {
		t.Errorf("generator lateness %.1f ms not reported (want >= %.0f)", late, 0.8*delayMS)
	}
	// Four turns of 20 ms on every connection, and never more at once.
	if wall := 1e3 * vals["round_s"]; wall < 3.8*delayMS {
		t.Errorf("%d requests over %d connections took %.1f ms, want >= %.0f", n, conns, wall, 3.8*delayMS)
	}
	if share := vals["slo_ok_share"]; share != 0 {
		t.Errorf("slo_ok_share = %g: no answer came within %g ms of its due time", share, sloHotMS)
	}
}
