package obs

import (
	"math"
	"sync/atomic"
)

// DefBuckets returns the default latency bucket bounds in seconds: a
// quasi-exponential ladder from 100 microseconds (a cache hit) to a minute
// (a pathological cold sweep). Callers may pass their own ascending bounds
// instead; an implicit +Inf overflow bucket always follows the last bound.
func DefBuckets() []float64 {
	return []float64{
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60,
	}
}

// ModeBuckets returns bucket bounds for per-mode evolution times: the same
// ladder as DefBuckets with a finer low end (10 microseconds), because a
// single arena-backed mode evolution on a coarse test grid runs far below
// the latency of a whole request.
func ModeBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

// histShard is one worker's private slice of a histogram. The hot words
// (count, sum, max) live in the shard struct and the bucket counters in a
// per-shard backing array, with padding spreading adjacent shards across
// cache lines — the same false-sharing defence as dispatch's paddedTiming,
// so a worker's per-mode observations never invalidate its neighbours'
// lines.
type histShard struct {
	count   atomic.Uint64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
	counts  []atomic.Uint64
	_       [80]byte
}

// Histogram is a fixed-bucket histogram with lock-free sharded writes.
// Hot paths that know their worker rank call ObserveShard(rank, v) and pay
// only a handful of uncontended atomic operations; casual callers use
// Observe, which round-robins across the shards. Reads (Snapshot, the
// exposition) merge the shards.
type Histogram struct {
	name, labels string
	bounds       []float64
	shards       []histShard
	mask         uint32
	rr           atomic.Uint32
}

// NewHistogram builds a standalone histogram (Registry.Histogram wraps
// this). bounds must be ascending upper bounds; shards is rounded up to a
// power of two in [1, 64].
func NewHistogram(name, labels string, bounds []float64, shards int) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	n := 1
	for n < shards && n < 64 {
		n <<= 1
	}
	h := &Histogram{
		name:   name,
		labels: labels,
		bounds: append([]float64(nil), bounds...),
		shards: make([]histShard, n),
		mask:   uint32(n - 1),
	}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
}

// bucketOf returns the index of the bucket v falls into (len(bounds) is the
// overflow bucket). Binary search over the fixed bounds; no allocation.
func (h *Histogram) bucketOf(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ObserveShard records v into the given shard (taken modulo the shard
// count). Workers that own a rank call this so their observations stay
// core-local; it performs no allocation and takes no lock.
func (h *Histogram) ObserveShard(shard int, v float64) {
	s := &h.shards[uint32(shard)&h.mask]
	s.counts[h.bucketOf(v)].Add(1)
	s.count.Add(1)
	atomicAddFloat(&s.sumBits, v)
	atomicMaxFloat(&s.maxBits, v)
}

// Observe records v into a round-robin shard — the path for callers without
// a natural rank (HTTP handlers).
func (h *Histogram) Observe(v float64) {
	h.ObserveShard(int(h.rr.Add(1)), v)
}

// atomicAddFloat adds delta to the float64 stored as bits in p.
func atomicAddFloat(p *atomic.Uint64, delta float64) {
	for {
		old := p.Load()
		if p.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// atomicMaxFloat raises the float64 stored as bits in p to at least v.
func atomicMaxFloat(p *atomic.Uint64, v float64) {
	for {
		old := p.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if p.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistSnapshot is a merged, point-in-time view of a histogram.
type HistSnapshot struct {
	Bounds []float64 // ascending upper bounds; Counts has one extra overflow slot
	Counts []uint64  // per-bucket counts (not cumulative)
	Count  uint64
	Sum    float64
	Max    float64
}

// Snapshot merges the shards. Concurrent writers may land between the
// per-shard reads, so the snapshot is approximate while under load — the
// usual scrape semantics — but exact once writers quiesce.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Count += sh.count.Load()
		s.Sum += math.Float64frombits(sh.sumBits.Load())
		if m := math.Float64frombits(sh.maxBits.Load()); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// Mean returns the average observation (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the target rank; observations in the overflow
// bucket resolve to the tracked maximum. Resolution is bounded by the
// bucket width, which is the usual histogram trade: cheap lock-free writes
// against ~bucket-granular quantiles.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= target && c > 0 {
			if i == len(s.Bounds) {
				return s.Max
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (target - float64(cum-c)) / float64(c)
			v := lo + (hi-lo)*frac
			// The tracked max is a tighter cap than the bucket's upper bound.
			if v > s.Max && s.Max > 0 {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}
