package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// childArgs is what the parent tells one workload process.
type childArgs struct {
	Workload string
	Seed     uint64
	Proc     int     // which of the run's processes this is
	Seconds  float64 // timed length of this process, split into roundsPerProc equal rounds
	Trace    bool    // traced pass instead of the timed one
	Smoke    bool
	// SpawnedNS is the parent's clock (unix ns) just before it started
	// this process, so setup_s includes exec and runtime start-up.
	SpawnedNS int64
}

// sinceSpawn is setup_s: seconds from the parent starting this process to now.
func (a childArgs) sinceSpawn() float64 { return float64(time.Now().UnixNano()-a.SpawnedNS) / 1e9 }

// roundDur is the length of one of the process's timed rounds.
func (a childArgs) roundDur() time.Duration {
	return time.Duration(a.Seconds / roundsPerProc * float64(time.Second))
}

// childReport is what one workload process hands back. A timed process
// fills Proc and Rounds; a traced one fills Layers and Spans. Values are
// keyed by metric name so the parent reduces them without knowing which
// workload made them; keys that are not metrics (sample counts, the tail
// percentile used) ride along into the suite's output.
type childReport struct {
	Workload  string               `json:"workload"`
	Proc      map[string]float64   `json:"proc,omitempty"`   // one value per process
	Rounds    []map[string]float64 `json:"rounds,omitempty"` // one value per round
	Layers    map[string]float64   `json:"layers,omitempty"`
	Spans     []span               `json:"spans,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	// Failures keeps the first few reasons so a failed run says why.
	Failures []string `json:"failures,omitempty"`
}

func (r *childReport) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runChild is one workload process: set up, then either the timed rounds
// or the traced pass.
func runChild(a childArgs) (*childReport, error) {
	w, err := findWorkload(a.Workload, a.Smoke)
	if err != nil {
		return nil, err
	}
	// Workers = GOMAXPROCS = nproc everywhere; clients and connections are
	// sized from the same number.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if w.Kind == kindSweep {
		w.Sweep.Workers = nproc
		return runSweepChild(w, a, nproc)
	}
	return runServeChild(w, a, nproc)
}

// msSince is the time elapsed since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// samples collects latencies of one class within one round.
type samples []float64

// put writes the class's median and sample count, and under tailName (when
// given) its p99-capped tail, into a round's values.
func (s samples) put(dst map[string]float64, p50Name, tailName string) {
	if len(s) == 0 {
		return
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	dst[p50Name] = quantile(sorted, 0.5)
	dst[p50Name+".n"] = float64(len(sorted))
	if tailName != "" {
		p, v := tail(sorted, 0.99)
		dst[tailName] = v
		dst[tailName+".pct"] = 100 * p
	}
}

// roundClock measures one round: wall, CPU and op count.
type roundClock struct {
	t0 time.Time
	u0 usage
}

func startRound() roundClock { return roundClock{t0: time.Now(), u0: readUsage()} }

// finish writes the round-level metrics every workload shares: ops were
// attempted (in the open loop: were due), ok of them were answered
// correctly, sloOK of them within their latency limit as well.
func (c roundClock) finish(dst map[string]float64, ops, ok, sloOK int) {
	wall := time.Since(c.t0).Seconds()
	cpu := readUsage().CPUSeconds - c.u0.CPUSeconds
	dst["round_s"] = wall
	dst["ops"] = float64(ops)
	dst["req_per_s"] = float64(ok) / wall
	if ops > 0 {
		dst["cpu_ms_per_op"] = 1e3 * cpu / float64(ops)
		dst["slo_ok_share"] = float64(sloOK) / float64(ops)
	}
}

// floorErr keeps cl_max_rel_err away from zero: the bound is relative, and
// sweep_brute is compared with its own committed output, so its true value
// at the defining commit is exactly 0. With the floor the rule reads "10 %
// relative or 1e-6 absolute, whichever is larger".
func floorErr(e float64) float64 { return math.Max(e, 1e-6) }
