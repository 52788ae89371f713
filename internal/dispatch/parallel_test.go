package dispatch

import (
	"sync/atomic"
	"testing"
)

// TestParallelFor: every index runs exactly once, for worker counts below,
// at and above the item count, including the serial fast path.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 137
		var counts [n]int32
		ParallelFor(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	ParallelFor(4, 0, func(int) { t.Fatal("body called for n=0") })
}

// TestPoolPrebuild: a precomputation started with StartPrebuild beside a
// sweep has completed once its wait function returns, on either backend.
func TestPoolPrebuild(t *testing.T) {
	m := model(t)
	var done atomic.Bool
	wait := StartPrebuild(func() { done.Store(true) })
	p := &Pool{Model: m, Workers: 2}
	if _, _, err := p.Run(nil, testKs(), smallMode()); err != nil {
		t.Fatal(err)
	}
	wait()
	if !done.Load() {
		t.Fatal("pool returned before the prebuild hook finished")
	}
	d, cleanup, err := NewMP(m, "chan", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	done.Store(false)
	wait = StartPrebuild(func() { done.Store(true) })
	if _, _, err := d.Run(nil, testKs(), smallMode()); err != nil {
		t.Fatal(err)
	}
	wait()
	if !done.Load() {
		t.Fatal("mp returned before the prebuild hook finished")
	}
}
