package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// contract is BENCHMARK.json: the names, units, directions and bounds every
// later claim about this repository's speed is made in. The program reads
// it rather than repeating it, so the file is the only place a bound lives.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadContract reads BENCHMARK.json from the repository root, whether the
// program runs there (go run ./bench) or in its own directory (go test).
func loadContract() (*contract, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var c contract
		if err := json.Unmarshal(b, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, lastErr
}

// runConfig shapes one run of one workload.
type runConfig struct {
	Seed    uint64
	Seconds float64 // timed length of the run, all processes together
	Procs   int     // fresh processes the run is split over
	Smoke   bool
	// spawn runs one workload process. The real one execs this binary; the
	// smoke test substitutes an in-process call.
	spawn func(childArgs) (*childReport, error)
}

// Every run is split over procsPerRun fresh processes of roundsPerProc
// rounds each: six rounds per run, and set-up, cold start and peak memory
// measured three times so their medians mean something.
const (
	procsPerRun   = 3
	roundsPerProc = 2
)

// runResult is one run of one workload, reduced.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Values holds, per name, the run's value with the per-round (or, for
	// per-process quantities, per-process) values it was reduced from.
	// End-to-end metrics are here by name; so are sample counts and the
	// generator's own figures.
	Values    map[string]summary `json:"values,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	// Spans is everything the traced pass recorded.
	Spans []span `json:"spans,omitempty"`
}

// runTimed makes one timed run of a workload: Procs fresh processes one
// after another, tracing off.
func runTimed(name string, rc runConfig) (*runResult, error) {
	res := &runResult{Workload: name, Seed: rc.Seed, Values: map[string]summary{}}
	perRound := map[string][]float64{}
	perProc := map[string][]float64{}
	for p := 0; p < rc.Procs; p++ {
		rep, err := rc.spawn(childArgs{
			Workload: name, Seed: rc.Seed, Proc: p, Smoke: rc.Smoke,
			Seconds: rc.Seconds / float64(rc.Procs),
		})
		if err != nil {
			return nil, fmt.Errorf("%s process %d: %w", name, p, err)
		}
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		res.Failures = append(res.Failures, rep.Failures...)
		for k, v := range rep.Proc {
			perProc[k] = append(perProc[k], v)
		}
		for _, round := range rep.Rounds {
			for k, v := range round {
				perRound[k] = append(perRound[k], v)
			}
		}
	}
	// A quantity measured in the rounds wins over a per-process stand-in
	// of the same name (serve_mixed measures misses in its rounds; the
	// other serve workload only has its preload to offer).
	for k, v := range perProc {
		res.Values[k] = summarize(v)
	}
	for k, v := range perRound {
		res.Values[k] = summarize(v)
	}
	return res, nil
}

// runTraced makes the traced pass of a workload in one fresh process.
func runTraced(name string, rc runConfig) (*runResult, error) {
	rep, err := rc.spawn(childArgs{Workload: name, Seed: rc.Seed, Smoke: rc.Smoke, Trace: true})
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", name, err)
	}
	return &runResult{
		Workload: name, Seed: rc.Seed, Layers: rep.Layers, Spans: rep.Spans,
		Attempted: rep.Attempted, Failed: rep.Failed, Failures: rep.Failures,
	}, nil
}

// spawnSelf runs one workload process: this same binary with -child. The
// child's last stdout line is its report. The process is always waited for;
// one that overruns is killed first.
func spawnSelf(a childArgs) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	a.SpawnedNS = time.Now().UnixNano()
	cmd := exec.CommandContext(ctx, self,
		"-child", "-workload", a.Workload,
		"-seed", strconv.FormatUint(a.Seed, 10),
		"-proc", strconv.Itoa(a.Proc),
		"-seconds", strconv.FormatFloat(a.Seconds, 'g', -1, 64),
		"-trace", boolFlag(a.Trace),
		"-smoke="+strconv.FormatBool(a.Smoke),
		"-spawned", strconv.FormatInt(a.SpawnedNS, 10))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep childReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("workload process report: %w", err)
	}
	return &rep, nil
}

func boolFlag(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// contractLine is the one JSON object the acceptance driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the driver's result: every end-to-end metric from a timed
// run, every per-layer metric from a traced one. A metric the run did not
// produce is an error, never a silent zero.
func (res *runResult) line(c *contract, traced bool) (*contractLine, error) {
	out := &contractLine{
		Correct: res.Failed == 0 && res.Attempted > 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{},
	}
	defs := c.EndToEnd
	if traced {
		defs = c.PerLayer
	}
	for _, d := range defs {
		var v float64
		var ok bool
		if traced {
			v, ok = res.Layers[d.Name]
		} else {
			var s summary
			s, ok = res.Values[d.Name]
			v = s.Median
		}
		if !ok || v != v {
			return nil, fmt.Errorf("%s did not produce %s", res.Workload, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// envBlock records where and how a set of runs was made.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds_per_run"`
	Procs      int     `json:"processes_per_run"`
	Rounds     int     `json:"rounds_per_run"`
	When       string  `json:"when"`
}

func environment(seed uint64, runs int, rc runConfig) envBlock {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Runs: runs, Seconds: rc.Seconds, Procs: rc.Procs,
		Rounds: rc.Procs * roundsPerProc, When: time.Now().UTC().Format(time.RFC3339),
	}
}

// suiteFile is what -out writes and -compare reads: a set of runs.
type suiteFile struct {
	Env    envBlock     `json:"env"`
	Timed  []*runResult `json:"timed"`  // runs x workloads, in the order made
	Traced []*runResult `json:"traced"` // one per workload, spans included
}

// runSuite makes a set: runs timed runs of every workload, interleaved
// round-robin so drift in the machine falls on all of them alike, each run
// on its own seed; then one traced pass per workload.
func runSuite(names []string, seed uint64, runs int, rc runConfig, log io.Writer) (*suiteFile, error) {
	sf := &suiteFile{Env: environment(seed, runs, rc)}
	for r := 0; r < runs; r++ {
		for _, name := range names {
			rr := rc
			rr.Seed = seed + uint64(r)
			res, err := runTimed(name, rr)
			if err != nil {
				return nil, err
			}
			sf.Timed = append(sf.Timed, res)
			fmt.Fprintf(log, "run %d/%d %-12s attempted %d failed %d\n", r+1, runs, name, res.Attempted, res.Failed)
		}
	}
	for _, name := range names {
		res, err := runTraced(name, rc)
		if err != nil {
			return nil, err
		}
		sf.Traced = append(sf.Traced, res)
		fmt.Fprintf(log, "traced    %-12s attempted %d failed %d\n", name, res.Attempted, res.Failed)
	}
	return sf, nil
}

// metricRuns returns a metric's value in each run of a workload.
func (sf *suiteFile) metricRuns(workload, metric string) []float64 {
	var out []float64
	for _, r := range sf.Timed {
		if s, ok := r.Values[metric]; ok && r.Workload == workload {
			out = append(out, s.Median)
		}
	}
	return out
}

// print writes every metric by name with its unit: per workload the
// end-to-end table (median over runs, quartiles, spread, and the sample
// behind it) and the layer table from the traced pass.
func (sf *suiteFile) print(c *contract, w io.Writer) {
	e := sf.Env
	fmt.Fprintf(w, "env: nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d  runs %d x %.0fs  rounds/run %d\n\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Seed, e.Runs, e.Seconds, e.Rounds)
	seen := map[string]bool{}
	var names []string
	for _, r := range sf.Timed {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	for _, name := range names {
		attempted, failed := 0, 0
		var last *runResult
		for _, r := range sf.Timed {
			if r.Workload == name {
				attempted, failed, last = attempted+r.Attempted, failed+r.Failed, r
			}
		}
		fmt.Fprintf(w, "== %s: ops attempted %d, failed %d\n", name, attempted, failed)
		fmt.Fprintf(w, "%-16s %-5s %14s %14s %14s %8s  %s\n", "end-to-end", "unit", "median", "q1", "q3", "spread", "sample (last run)")
		for _, d := range c.EndToEnd {
			vals := sf.metricRuns(name, d.Name)
			if len(vals) == 0 {
				continue
			}
			q1, _, q3 := quartiles(vals)
			fmt.Fprintf(w, "%-16s %-5s %14.6g %14.6g %14.6g %8.4f  %s\n",
				d.Name, d.Unit, median(vals), q1, q3, spread(vals), sampleNote(last, d.Name))
		}
		for _, t := range sf.Traced {
			if t.Workload != name {
				continue
			}
			fmt.Fprintf(w, "%-32s %-6s %16s   (traced pass: attempted %d, failed %d)\n", "per-layer", "unit", "value", t.Attempted, t.Failed)
			for _, d := range c.PerLayer {
				if v, ok := t.Layers[d.Name]; ok {
					fmt.Fprintf(w, "%-32s %-6s %16.6g\n", d.Name, d.Unit, v)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// sampleNote describes what a metric's last-run value was taken from: how
// many rounds, how many samples a round, which tail percentile.
func sampleNote(r *runResult, metric string) string {
	if r == nil {
		return ""
	}
	var parts []string
	if s, ok := r.Values[metric]; ok {
		parts = append(parts, fmt.Sprintf("from %d", len(s.Values)))
	}
	if s, ok := r.Values[metric+".n"]; ok {
		parts = append(parts, fmt.Sprintf("~%.0f samples each", s.Median))
	}
	if s, ok := r.Values[metric+".pct"]; ok {
		parts = append(parts, fmt.Sprintf("p%.4g", s.Median))
	}
	return strings.Join(parts, ", ")
}

func writeSuite(path string, sf *suiteFile) error {
	b, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// workloadNames lists the contract's workloads in order.
func (c *contract) workloadNames() []string {
	var out []string
	for _, w := range c.Workloads {
		out = append(out, w.Name)
	}
	return out
}
