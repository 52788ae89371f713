package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// streamSpecials are the inputs whose bits a kernel is most likely to get
// wrong: signed zeros, subnormals, infinities and NaN.
var streamSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
	1e-200, -1e-200, math.Inf(1), math.Inf(-1), math.NaN(), 1, -0.75, 1e300,
}

func streamFill(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = streamSpecials[rng.Intn(len(streamSpecials))]
		} else {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return v
}

// streamCase runs both stencil kernels and their Go loops on the same
// inputs, with d, rA and rB as short as the kernels allow and sentinels
// around d, and compares every bit. A NaN only has to be a NaN: which
// operand's payload an x86 multiply of two NaNs keeps depends on the
// compiler's operand order in the Go loop, and no value a mode keeps is NaN.
func streamCase(t *testing.T, what string, f, rA, rB []float64, k, kd float64) {
	t.Helper()
	n := max(len(f)-1, 0)
	const pad = 3
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	for _, damped := range []bool{true, false} {
		want := make([]float64, n)
		buf := make([]float64, n+2*pad)
		for i := range buf {
			if i < pad || i >= pad+n {
				buf[i] = sentinel
			}
		}
		got := buf[pad : pad+n : pad+n]
		if damped {
			streamDampedGo(want, f, rA[:n], rB[:n], k, kd)
			streamDamped(got, f, rA[:n], rB[:n], k, kd)
		} else {
			streamGo(want, f, rA[:n], rB[:n], k)
			stream(got, f, rA[:n], rB[:n], k)
		}
		for i, v := range buf {
			if (i < pad || i >= pad+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("%s damped=%v: a write landed outside d, at offset %d", what, damped, i-pad)
			}
		}
		for l := range want {
			g, w := got[l], want[l]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s damped=%v: d[%d] = %v (%#016x), the Go loop gives %v (%#016x)",
					what, damped, l, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestStreamMatchesLoop: the hierarchy stencil kernels reproduce their Go
// loops bit for bit for every hierarchy length 0-67 (every tail of the
// 2-wide chunks), with ±0, subnormals, ±Inf and NaN among the moments, the
// ratios and the rates — kd = ±0 included, where only the damped kernel
// may carry -kd*f[l].
func TestStreamMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rates := append([]float64{0.02, -3.5}, streamSpecials...)
	for n := 0; n <= 67; n++ {
		for _, k := range rates {
			kd := rates[rng.Intn(len(rates))]
			streamCase(t, fmt.Sprintf("n=%d k=%v kd=%v", n, k, kd),
				streamFill(rng, n), streamFill(rng, n), streamFill(rng, n), k, kd)
		}
	}
}

// TestStreamPanicsOnShortSlices: d, rA or rB shorter than len(f)-1 panics
// in the Go wrapper.
func TestStreamPanicsOnShortSlices(t *testing.T) {
	for _, n := range []int{5, 6, 20, 21} {
		f, short := make([]float64, n), make([]float64, n-2)
		long := make([]float64, n)
		for name, fn := range map[string]func(){
			"damped d":  func() { streamDamped(short, f, long, long, 1, 1) },
			"damped rA": func() { streamDamped(long, f, short, long, 1, 1) },
			"damped rB": func() { streamDamped(long, f, long, short, 1, 1) },
			"d":         func() { stream(short, f, long, long, 1) },
			"rA":        func() { stream(long, f, short, long, 1) },
			"rB":        func() { stream(long, f, long, short, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("len(f)=%d %s: no panic", n, name)
					}
				}()
				fn()
			}()
		}
	}
}

// FuzzStream compares the stencil kernels with their Go loops on fuzzed
// values: the bytes give the moments, the ratios are rotations of them.
func FuzzStream(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(streamSpecials...), 0.02, 1e3)
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8), -1.0, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, k, kd float64) {
		m := make([]float64, len(data)/8)
		for i := range m {
			m[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		rA, rB := make([]float64, len(m)), make([]float64, len(m))
		for i := range m {
			rA[i], rB[i] = m[(i+1)%len(m)], m[(i+2)%len(m)]
		}
		streamCase(t, "fuzz", m, rA, rB, k, kd)
	})
}
