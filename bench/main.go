// Command bench is this repository's benchmark: five named workloads, the
// end-to-end metrics measured with tracing off, and a traced pass that lays
// the same work out layer by layer. BENCHMARK.json at the repository root
// names the workloads, metrics, units and bounds; bench/README.md says why
// each is there.
//
//	go run ./bench                                   every workload once, tables to stdout
//	go run ./bench -runs 10 -out set.json            a set of runs, for comparison
//	go run ./bench -compare old.json new.json        apply the bounds; also the A/A check
//	go run ./bench -workload serve_hot -seed 7 -seconds 15 -trace 0
//	                                                 one run, result as one JSON line (the driver's form)
//	go run ./bench -write-reference                  recompute bench/testdata
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload and print the result as one JSON line")
		seed         = fs.Uint64("seed", 1, "seed for every generated input")
		seconds      = fs.Float64("seconds", 0, "timed length of one run (default: run_seconds of BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced pass, per-layer metrics")
		runs         = fs.Int("runs", 1, "timed runs per workload in a set, each on its own seed")
		out          = fs.String("out", "", "write the set, the traced pass's spans included, to this file")
		compare      = fs.Bool("compare", false, "compare two sets: bench -compare old.json new.json")
		writeRef     = fs.Bool("write-reference", false, "recompute the reference spectra into bench/testdata")
		smoke        = fs.Bool("smoke", false, "tiny sizes (what the tier-1 test runs)")

		child   = fs.Bool("child", false, "internal: be one workload process")
		proc    = fs.Int("proc", 0, "internal: process index within the run")
		spawned = fs.Int64("spawned", 0, "internal: parent's clock when it started this process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *child {
		rep, err := runChild(childArgs{
			Workload: *workloadName, Seed: *seed, Proc: *proc, Seconds: *seconds,
			Trace: *trace != 0, Smoke: *smoke, SpawnedNS: *spawned,
		})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	if *writeRef {
		return writeReferences(testdataDir())
	}
	c, err := loadContract()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare old.json new.json")
		}
		oldSet, err := readSuite(fs.Arg(0))
		if err != nil {
			return err
		}
		newSet, err := readSuite(fs.Arg(1))
		if err != nil {
			return err
		}
		if !compareSets(c, oldSet, newSet, os.Stdout) {
			return fmt.Errorf("%s is worse than %s", fs.Arg(1), fs.Arg(0))
		}
		return nil
	}

	rc := runConfig{
		Seed: *seed, Seconds: *seconds, Procs: procsPerRun,
		Smoke: *smoke, spawn: spawnSelf,
	}
	if rc.Seconds <= 0 {
		rc.Seconds = float64(c.RunSeconds)
	}

	if *workloadName != "" {
		// The acceptance driver's form: one workload, one run, one line.
		if _, err := findWorkload(*workloadName, *smoke); err != nil {
			return err
		}
		var res *runResult
		if *trace != 0 {
			res, err = runTraced(*workloadName, rc)
		} else {
			res, err = runTimed(*workloadName, rc)
		}
		if err != nil {
			return err
		}
		line, err := res.line(c, *trace != 0)
		if err != nil {
			return err
		}
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "failed op:", f)
		}
		return json.NewEncoder(os.Stdout).Encode(line)
	}

	sf, err := runSuite(c.workloadNames(), *seed, *runs, rc, os.Stderr)
	if err != nil {
		return err
	}
	sf.print(c, os.Stdout)
	if *out != "" {
		if err := writeSuite(*out, sf); err != nil {
			return err
		}
	}
	for _, r := range append(sf.Timed, sf.Traced...) {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed: %v", r.Workload, r.Failed, r.Attempted, r.Failures)
		}
	}
	return nil
}
