package thermo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"runtime"
	"testing"

	"plinger/internal/cosmology"
	"plinger/internal/recomb"
)

// updateGolden rewrites testdata/golden_history_bits.json from the code
// under test, the repository's convention; pass it only for a change that
// is meant to move the thermal history.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_history_bits.json")

const goldenHistoryPath = "testdata/golden_history_bits.json"

// hashFloats feeds xs to h the way core's hashBits feeds a []float64: every
// value as its 64 bits, then the length.
func hashFloats(h hash.Hash, xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
	h.Write(buf[:])
}

// historyDigest is one SHA-256 over everything a model's thermal history
// hands the perturbation code: recomb's five History arrays and its two
// scalars, the four outputs of AtLnA at every knot, and the visibility peak.
func historyDigest(th *Thermo) string {
	h := sha256.New()
	hist := th.Hist
	for _, xs := range [][]float64{hist.LnA, hist.Xe, hist.Xp, hist.TBaryon, hist.TGamma} {
		hashFloats(h, xs)
	}
	n := len(hist.LnA)
	kd, cs2, kappa, vis := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, l := range hist.LnA {
		kd[i], cs2[i], kappa[i], vis[i] = th.AtLnA(l)
	}
	for _, xs := range [][]float64{kd, cs2, kappa, vis, {hist.FHe, hist.NH0, th.ARec(), th.TauRec()}} {
		hashFloats(h, xs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenHistoryBits pins the ionization and thermal history bit for bit
// on three models: SCDM, the massive-neutrino model of core's golden modes,
// and a high-baryon model that recombines earlier. Every C_l, mode and wire
// bit downstream starts here; a rearrangement of recomb or thermo may not
// move this file.
func TestGoldenHistoryBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64; other targets may fuse multiply-adds")
	}
	highB := cosmology.SCDM()
	highB.OmegaB = 0.10
	highB.OmegaC = 1.0 - highB.OmegaB - highB.OmegaGamma() - highB.OmegaNuMassless()
	cases := map[string]func() (*cosmology.Background, error){
		"scdm":         func() (*cosmology.Background, error) { return cosmology.New(cosmology.SCDM()) },
		"mdm_4ev_flat": func() (*cosmology.Background, error) { return cosmology.NewFlattened(cosmology.MDM(4.0)) },
		"scdm_ob0.10":  func() (*cosmology.Background, error) { return cosmology.New(highB) },
	}
	got := map[string]string{}
	for name, bgOf := range cases {
		bg, err := bgOf()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		th, err := New(bg, recomb.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = historyDigest(th)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHistoryPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenHistoryPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", goldenHistoryPath, err)
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: history bits moved: digest %s, recorded %s", name, sum, want[name])
		}
	}
}
