package ode

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the inputs whose bits a kernel is most likely to get wrong:
// signed zeros, subnormals, the flush threshold from both sides, infinities
// and NaN.
var specials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
	math.Nextafter(flushBelow, 0), flushBelow, math.Nextafter(flushBelow, 1),
	-math.Nextafter(flushBelow, 0), -flushBelow, -math.Nextafter(flushBelow, 1),
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1.5, 1e300, -1e-300,
}

// fill returns n values, a third of them drawn from specials.
func fill(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return v
}

// sameBits compares two results bit for bit, except that a NaN only has to
// be a NaN: when both operands of an x86 add are NaN the result is the
// first one's, and which operand the compiler puts first in the Go loop is
// its register allocator's choice (it differs between accumGo's unrolled
// and default cases). No value a trajectory keeps is NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: [%d] = %v (%#016x), the Go loop gives %v (%#016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// guarded returns a slice of n zeros with sentinels on both sides of it in
// the same array, and a check that the sentinels are untouched.
func guarded(t *testing.T, n int) ([]float64, func()) {
	const pad = 3
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	buf := make([]float64, n+2*pad)
	for i := range buf {
		if i < pad || i >= pad+n {
			buf[i] = sentinel
		}
	}
	return buf[pad : pad+n : pad+n], func() {
		t.Helper()
		for i, v := range buf {
			if (i < pad || i >= pad+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("a write landed outside the slice, at offset %d", i-pad)
			}
		}
	}
}

// accumCase runs accum and accumGo on the same inputs, in place (dst ==
// base, as the error-estimate pass runs) or not, and compares every bit.
func accumCase(t *testing.T, what string, base []float64, h float64, nz []nzc, k [][]float64, inPlace bool) {
	t.Helper()
	want := make([]float64, len(base))
	wantBase := want
	if !inPlace {
		wantBase = base
	} else {
		copy(want, base)
	}
	accumGo(want, wantBase, h, nz, k)

	dst, check := guarded(t, len(base))
	src := base
	if inPlace {
		copy(dst, base)
		src = dst
	}
	accum(dst, src, h, nz, k)
	check()
	sameBits(t, what, dst, want)
}

// TestAccumMatchesLoop: the stage-sum kernel reproduces accumGo bit for bit
// at every length 0-67 (every tail of the 16- and 2-wide chunks), for every
// term count 0-10 (two kernel calls above 8), in place and not.
func TestAccumMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 67; n++ {
		for m := 0; m <= 10; m++ {
			for _, inPlace := range []bool{false, true} {
				k := make([][]float64, m+2)
				for j := range k {
					k[j] = fill(rng, n)
				}
				nz := make([]nzc, m)
				for i, j := range rng.Perm(len(k))[:m] {
					nz[i] = nzc{j, fill(rng, 1)[0]}
				}
				h := rng.ExpFloat64()
				accumCase(t, fmt.Sprintf("n=%d m=%d inPlace=%v", n, m, inPlace), fill(rng, n), h, nz, k, inPlace)
			}
		}
	}
}

// flushCase runs flush and flushGo on src and compares every bit.
func flushCase(t *testing.T, what string, src []float64) {
	t.Helper()
	want := make([]float64, len(src))
	flushGo(want, src)
	dst, check := guarded(t, len(src))
	flush(dst, src)
	check()
	sameBits(t, what, dst, want)
}

// TestFlushMatchesLoop: the accept's flush reproduces flushGo bit for bit
// at every length 0-67, with values on both sides of ±flushBelow, signed
// zeros, subnormals, infinities and NaN (which stays NaN); in place too.
func TestFlushMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 67; n++ {
		src := fill(rng, n)
		flushCase(t, fmt.Sprintf("n=%d", n), src)
		want := make([]float64, n)
		flushGo(want, src)
		flush(src, src)
		sameBits(t, fmt.Sprintf("n=%d in place", n), src, want)
	}
	out := make([]float64, len(specials))
	flush(out, specials)
	for i, v := range specials {
		if flushed := math.Abs(v) < flushBelow; flushed && math.Float64bits(out[i]) != 0 {
			t.Errorf("%v flushed to %v, want +0", v, out[i])
		} else if !flushed && math.Float64bits(out[i]) != math.Float64bits(v) {
			t.Errorf("%v came out as %v", v, out[i])
		}
	}
}

// TestKernelsPanicOnShortSlices: a slice shorter than the kernel would read
// or write panics in the Go wrapper.
func TestKernelsPanicOnShortSlices(t *testing.T) {
	for _, n := range []int{1, 2, 9, 17} {
		long, short := make([]float64, n), make([]float64, n-1)
		nz := []nzc{{0, 1}, {1, 2}}
		for name, fn := range map[string]func(){
			"accum base":  func() { accum(long, short, 1, nz, [][]float64{long, long}) },
			"accum stage": func() { accum(long, long, 1, nz, [][]float64{long, short}) },
			"flush dst":   func() { flush(short, long) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("n=%d %s: no panic", n, name)
					}
				}()
				fn()
			}()
		}
	}
}

// FuzzKernels compares the stage-sum and flush kernels with their Go loops
// on fuzzed values: the bytes give the base vector, the stage vectors are
// rotations of it, and the term count and step come from the fuzzer.
func FuzzKernels(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(specials...), 0.25, uint8(7), false)
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9), -1.5, uint8(9), true)
	f.Add(seed(flushBelow, -flushBelow, 5e-324), 1e-100, uint8(1), false)
	f.Fuzz(func(t *testing.T, data []byte, h float64, terms uint8, inPlace bool) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n, m := len(vals), int(terms%12)
		k := make([][]float64, m)
		nz := make([]nzc, m)
		for j := range k {
			k[j] = make([]float64, n)
			for i := range k[j] {
				k[j][i] = vals[(i+j+1)%n]
			}
			nz[j] = nzc{m - 1 - j, float64(j) - 2.5}
		}
		accumCase(t, "accum", vals, h, nz, k, inPlace)
		flushCase(t, "flush", vals)
	})
}
