package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"plinger"
)

// reference is a committed spectrum every timed and traced op is checked
// against. encoding/json writes float64 in the shortest form that reads
// back to the same bits, so the file is an exact copy of what was computed.
type reference struct {
	Name   string    `json:"name"`
	What   string    `json:"what"`
	LMaxCl int       `json:"lmax_cl"`
	NK     int       `json:"nk"`
	Method string    `json:"method"`
	L      []int     `json:"l"`
	Cl     []float64 `json:"cl"`

	opts plinger.SpectrumOptions // what -write-reference computes it with
}

// referenceSpecs lists what -write-reference computes. At full size: per
// workload the exact line-of-sight spectrum on the same k grid (no fast
// switch on), and for sweep_brute the brute spectrum itself as the code at
// the defining commit produced it. At smoke size the grids are too coarse
// for "exact" to mean anything (the fast engine sits tens of percent from it
// at LMaxCl 40), so every smoke reference is the workload's own engine's
// output: the smoke pass checks that answers stay what they were, not that
// they are accurate.
func referenceSpecs() []reference {
	specs := []reference{}
	seen := map[string]bool{}
	for _, smoke := range []bool{false, true} {
		for _, w := range workloads(smoke) {
			if seen[w.Ref] {
				continue // the stock-size workloads share one reference
			}
			seen[w.Ref] = true
			ref := reference{Name: w.Ref, LMaxCl: w.Sweep.LMaxCl, NK: w.Sweep.NK, opts: w.Sweep}
			ref.opts.Transport = "" // the spectrum does not depend on the backend
			switch {
			case smoke && w.Kind != kindSweep:
				// The canary is the service's default request: default ladder.
				ref.opts.Ls = nil
				fallthrough
			case smoke:
				ref.Method, ref.What = "own", "the workload's own engine's output when the benchmark was defined (smoke size)"
			case w.Sweep.Method == "brute":
				ref.Method, ref.What = "brute", "brute-force read-off as computed when the benchmark was defined"
			default:
				ref.Method, ref.What = "los", "exact line-of-sight path (no fast switch) on the workload's k grid"
				ref.opts = plinger.SpectrumOptions{LMaxCl: ref.LMaxCl, NK: ref.NK, Ls: w.Sweep.Ls}
			}
			specs = append(specs, ref)
		}
	}
	return specs
}

// testdataDir finds bench/testdata from the repository root (go run
// ./bench) or from the package directory (go test).
func testdataDir() string {
	for _, d := range []string{filepath.Join("bench", "testdata"), "testdata"} {
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d
		}
	}
	return filepath.Join("bench", "testdata")
}

func loadReference(name string) (*reference, error) {
	path := filepath.Join(testdataDir(), "ref_"+name+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w (regenerate with -write-reference)", name, err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	if len(ref.L) == 0 || len(ref.L) != len(ref.Cl) || !sort.IntsAreSorted(ref.L) {
		return nil, fmt.Errorf("reference %s: malformed (want increasing l, one C_l each)", path)
	}
	return &ref, nil
}

// relErr returns the worst relative deviation of cl from the reference over
// the multipoles ls, or an error when a value is non-finite, non-positive
// or outside the reference's range: such an op has failed, whatever its
// distance. A nil reference checks the values alone and reports 0.
func (ref *reference) relErr(ls []int, cl []float64) (float64, error) {
	if len(ls) == 0 || len(ls) != len(cl) {
		return 0, fmt.Errorf("spectrum has %d multipoles and %d values", len(ls), len(cl))
	}
	worst := 0.0
	for i, l := range ls {
		c := cl[i]
		if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			return 0, fmt.Errorf("C_%d = %g is not a finite positive number", l, c)
		}
		if ref == nil {
			continue
		}
		j := sort.SearchInts(ref.L, l)
		if j == len(ref.L) || ref.L[j] != l {
			return 0, fmt.Errorf("l = %d is not in reference %s", l, ref.Name)
		}
		if e := math.Abs(c/ref.Cl[j] - 1); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// writeReferences recomputes every reference spectrum into dir. The
// LMaxCl 1000 exact path takes about a minute; the rest are quick.
func writeReferences(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m, err := plinger.New(plinger.SCDM())
	if err != nil {
		return err
	}
	for _, ref := range referenceSpecs() {
		t0 := time.Now()
		spec, err := m.ComputeSpectrum(ref.opts)
		if err != nil {
			return fmt.Errorf("reference %s: %w", ref.Name, err)
		}
		ref.L, ref.Cl = spec.L, spec.Cl
		b, err := json.Marshal(ref)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "ref_"+ref.Name+".json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d multipoles, %.1fs)\n", path, len(ref.L), time.Since(t0).Seconds())
	}
	return nil
}
