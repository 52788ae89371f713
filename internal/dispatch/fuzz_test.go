package dispatch

import (
	"math"
	"testing"

	"plinger/internal/core"
	"plinger/internal/mp"
)

// fuzzFloats reads fuzz bytes as little-endian doubles, dropping a ragged
// tail.
func fuzzFloats(b []byte) []float64 {
	y, _ := mp.DecodeFloats(b[:len(b)/8*8])
	return y
}

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

// FuzzUnpackResult: no pair of blocks panics the decoder, and a pair it
// accepts packs back to identical bits.
func FuzzUnpackResult(f *testing.F) {
	r := fakeResult(0.05, 6)
	f.Add(mp.EncodeFloats(packSummary(3, r)), mp.EncodeFloats(packMoments(3, r)))
	f.Fuzz(func(t *testing.T, sumBytes, momBytes []byte) {
		sum, mom := fuzzFloats(sumBytes), fuzzFloats(momBytes)
		ik, r, err := unpackResult(sum, mom)
		if err != nil {
			return
		}
		if !sameBits(packSummary(ik, r), sum) || !sameBits(packMoments(ik, r), mom) {
			t.Fatalf("accepted blocks do not pack back:\nsum %v\nmom %v", sum, mom)
		}
	})
}

// FuzzUnpackSources: no block panics the decoder, and a block it accepts
// packs back to identical bits.
func FuzzUnpackSources(f *testing.F) {
	r := fakeResult(0.05, 6)
	r.Sources = []core.Sample{{Tau: 1, A: 0.5, Theta0: -0.25, Residual: 1e-9}, {Tau: 2, Kappa: 3}}
	f.Add(4, mp.EncodeFloats(packSources(4, r)))
	f.Fuzz(func(t *testing.T, ik int, yBytes []byte) {
		y := fuzzFloats(yBytes)
		samples, err := unpackSources(ik, y)
		if err != nil {
			return
		}
		if !sameBits(packSources(ik, &core.Result{Sources: samples}), y) {
			t.Fatalf("accepted block for ik=%d does not pack back: %v", ik, y)
		}
	})
}
