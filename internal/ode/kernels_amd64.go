package ode

// accumTerms is the most stage terms one accumSSE2 call sums. A longer sum
// chains calls through dst: SSE2 rounds every add to float64, so storing
// the partial sum and reloading it rounds exactly as one chain does.
const accumTerms = 8

// accum is accumGo on the SSE2 kernel. Every slice it reads is checked
// here, so a short one panics before the kernel runs.
func accum(dst, base []float64, h float64, nz []nzc, k [][]float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = base[n-1]
	if len(nz) == 0 {
		copy(dst, base)
		return
	}
	// Each coefficient is stored twice, as the pair the kernel multiplies by.
	var c [2 * accumTerms]float64
	var p [accumTerms]*float64
	for {
		m := min(len(nz), accumTerms)
		for t, z := range nz[:m] {
			kj := k[z.j]
			_ = kj[n-1]
			c[2*t] = h * z.c
			c[2*t+1] = c[2*t]
			p[t] = &kj[0]
		}
		accumSSE2(dst, &base[0], &c, &p, m)
		if nz = nz[m:]; len(nz) == 0 {
			return
		}
		base = dst
	}
}

// accumSSE2 sets dst[i] = base[i] + c[0]*k[0][i] + ... + c[2(m-1)]*k[m-1][i]
// for every i < len(dst), adding left to right. 1 <= m <= accumTerms; base
// and each k[t] hold len(dst) values; dst and base are the same or disjoint.
//
//go:noescape
func accumSSE2(dst []float64, base *float64, c *[2 * accumTerms]float64, k *[accumTerms]*float64, m int)

// flush is flushGo on the SSE2 kernel; dst shorter than src panics here.
func flush(dst, src []float64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	flushSSE2(dst, src, flushBelow)
}

// flushSSE2 sets dst[i] = src[i], or +0 where |src[i]| < below, for every
// i < len(src); len(dst) >= len(src).
//
//go:noescape
func flushSSE2(dst, src []float64, below float64)
