package core

// streamDamped is streamDampedGo on the SSE2 kernel. Every slice it reads
// or writes is checked here, so a short one panics before the kernel runs.
func streamDamped(d, f, rA, rB []float64, k, kd float64) {
	if n := len(f); n > 4 {
		_, _, _ = d[n-2], rA[n-2], rB[n-2]
		streamDampedSSE2(d, f, rA, rB, k, kd)
	}
}

// stream is streamGo on the SSE2 kernel, with the same checks.
func stream(d, f, rA, rB []float64, k float64) {
	if n := len(f); n > 4 {
		_, _, _ = d[n-2], rA[n-2], rB[n-2]
		streamSSE2(d, f, rA, rB, k)
	}
}

// streamDampedSSE2 and streamSSE2 compute what their Go loops do, for
// len(f) > 4, with d, rA and rB holding at least len(f)-1 values.
//
//go:noescape
func streamDampedSSE2(d, f, rA, rB []float64, k, kd float64)

//go:noescape
func streamSSE2(d, f, rA, rB []float64, k float64)
