package specfunc

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// exactKernels evaluates (j_l, j_l', q_l) by the same recurrences the
// reference LOS path uses, for cross-checking the table.
func exactKernels(l int, x float64) (j, jp, q float64) {
	jl := SphericalBesselJArray(l+1, x, nil)
	j, jp, jpp := besselKernels(jl, l, x)
	return j, jp, 0.5 * (3.0*jpp + j)
}

// TestBesselTableMatchesDirect sweeps each tabulated multipole across the
// full argument range — through the turning point x ~ l where the upward
// and backward recurrences hand over — and checks the interpolated kernels
// against the direct evaluation. j_l is bounded by 1, so absolute
// tolerances are meaningful; the cubic interpolation error budget is ~1e-6.
func TestBesselTableMatchesDirect(t *testing.T) {
	ls := []int{0, 1, 2, 5, 10, 25, 60, 100, 150}
	tbl := NewBesselTable(150, ls, 400, 0, nil)
	for _, l := range ls {
		row, ok := tbl.Row(l)
		if !ok {
			t.Fatalf("l=%d missing", l)
		}
		fl := float64(l)
		// Dense probes around the turning point, plus a coarse sweep of
		// the oscillatory region; offsets avoid landing on table nodes.
		var xs []float64
		for dx := -8.0; dx <= 8.0; dx += 0.317 {
			if x := fl + dx; x > 0 {
				xs = append(xs, x)
			}
		}
		for x := 0.0137; x < 400; x += 3.713 {
			xs = append(xs, x)
		}
		for _, x := range xs {
			j, jp, q := row.Eval(x)
			ej, ejp, eq := exactKernels(l, x)
			if math.Abs(j-ej) > 2e-5 || math.Abs(jp-ejp) > 2e-5 || math.Abs(q-eq) > 1e-4 {
				t.Fatalf("l=%d x=%g: table (%g, %g, %g) vs exact (%g, %g, %g)",
					l, x, j, jp, q, ej, ejp, eq)
			}
		}
	}
}

// TestBesselTableSmallArgumentLimits pins the x -> 0 limit branches that
// the LOS integrand depends on: j_0(0) = 1, j_1'(0) = 1/3, and the
// quadrupole kernel q_2(0) = (3 * 2/15 + 0)/2 = 1/5.
func TestBesselTableSmallArgumentLimits(t *testing.T) {
	tbl := NewBesselTable(4, nil, 50, 0, nil)
	cases := []struct {
		l          int
		j, jp, q   float64
		name       string
		absJ, absD float64
	}{
		{l: 0, j: 1, jp: 0, q: 0, name: "monopole"},
		{l: 1, j: 0, jp: 1.0 / 3.0, q: 0, name: "dipole"},
		{l: 2, j: 0, jp: 0, q: 0.2, name: "quadrupole"},
	}
	for _, c := range cases {
		row, _ := tbl.Row(c.l)
		for _, x := range []float64{0, 1e-10, 1e-6} {
			j, jp, q := row.Eval(x)
			if math.Abs(j-c.j) > 1e-5 || math.Abs(jp-c.jp) > 1e-5 || math.Abs(q-c.q) > 1e-5 {
				t.Fatalf("%s at x=%g: (%g, %g, %g), want (%g, %g, %g)",
					c.name, x, j, jp, q, c.j, c.jp, c.q)
			}
		}
	}
}

// TestBesselTableXLow checks the truncation threshold: below XLow every
// kernel really is negligible, and XLow is meaningfully positive for large
// l (that is what pays for the per-multipole loop truncation).
func TestBesselTableXLow(t *testing.T) {
	tbl := NewBesselTable(150, []int{2, 60, 150}, 400, 0, nil)
	for _, l := range []int{60, 150} {
		row, _ := tbl.Row(l)
		if row.XLow < float64(l)/2 {
			t.Fatalf("l=%d: XLow=%g suspiciously small", l, row.XLow)
		}
		if row.XLow > float64(l) {
			t.Fatalf("l=%d: XLow=%g beyond the turning point", l, row.XLow)
		}
		for _, x := range []float64{row.XLow / 2, row.XLow * 0.9} {
			if j := SphericalBesselJ(l, x); math.Abs(j) > 1e-8 {
				t.Fatalf("l=%d: j(%g)=%g not negligible below XLow=%g", l, x, j, row.XLow)
			}
		}
	}
	if row, _ := tbl.Row(2); row.XLow != 0 {
		t.Fatalf("l=2 must be live from the origin, XLow=%g", row.XLow)
	}
}

// TestSharedBesselTableCache checks the process cache: same request, same
// table; widened multipole set, a rebuilt superset table under the same
// key.
func TestSharedBesselTableCache(t *testing.T) {
	a := SharedBesselTable([]int{2, 10, 30}, 333, nil)
	b := SharedBesselTable([]int{10, 2}, 330, nil)
	if a != b {
		t.Fatal("subset request rebuilt the table")
	}
	c := SharedBesselTable([]int{2, 10, 17, 30}, 333, nil)
	if c == a {
		t.Fatal("extension did not rebuild")
	}
	for _, l := range []int{2, 10, 17, 30} {
		if !c.Has(l) {
			t.Fatalf("extended table missing l=%d", l)
		}
	}
	if d := SharedBesselTable([]int{2, 17}, 331, nil); d != c {
		t.Fatal("extended table not cached")
	}
}

// TestBesselCachePrune: the shared cache is a bounded LRU — churning
// through distinct keys must never grow it past the limit, eviction must
// hit the least-recently-used entry first, and surviving entries must
// still be served from cache.
func TestBesselCachePrune(t *testing.T) {
	defer SetBesselCacheLimit(SetBesselCacheLimit(2))

	// Distinct lmax buckets (64 apart) give distinct keys at equal xmax.
	t10 := SharedBesselTable([]int{10}, 200, nil)
	t100 := SharedBesselTable([]int{100}, 200, nil)
	if n := BesselCacheLen(); n > 2 {
		t.Fatalf("cache holds %d entries with limit 2", n)
	}
	// Touch the first so the second becomes LRU, then insert a third.
	if tt := SharedBesselTable([]int{10}, 200, nil); tt != t10 {
		t.Fatal("cached table rebuilt on hit")
	}
	t200 := SharedBesselTable([]int{200}, 200, nil)
	if n := BesselCacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries after pruning, want 2", n)
	}
	// The recently used and the new entry survive; the LRU one was evicted.
	if tt := SharedBesselTable([]int{10}, 200, nil); tt != t10 {
		t.Fatal("recently used entry was evicted")
	}
	if tt := SharedBesselTable([]int{200}, 200, nil); tt != t200 {
		t.Fatal("newest entry was evicted")
	}
	if tt := SharedBesselTable([]int{100}, 200, nil); tt == t100 {
		t.Fatal("least-recently-used entry survived past the limit")
	}
	// Evicted tables must remain readable (immutability contract).
	if row, ok := t100.Row(100); !ok {
		t.Fatal("evicted table lost its rows")
	} else if j, _, _ := row.Eval(120.0); j == 0 {
		t.Fatal("evicted table row unreadable")
	}
	// Limits below 1 clamp to 1.
	SetBesselCacheLimit(0)
	SharedBesselTable([]int{10}, 200, nil)
	SharedBesselTable([]int{100}, 200, nil)
	if n := BesselCacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries with limit 1", n)
	}
}

// goPar is a dispatch-style build fan-out: one goroutine per body.
func goPar(n int, body func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) { body(i); done <- struct{}{} }(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// TestBesselTableParallelBuild: the dispatch-style fan-out and the serial
// build must produce identical tables.
func TestBesselTableParallelBuild(t *testing.T) {
	ser := NewBesselTable(80, []int{3, 40, 80}, 900, 0, nil)
	con := NewBesselTable(80, []int{3, 40, 80}, 900, 0, goPar)
	for _, l := range []int{3, 40, 80} {
		rs, _ := ser.Row(l)
		rc, _ := con.Row(l)
		for _, x := range []float64{0.1, 7.7, 39.9, 80.3, 555.5} {
			js, jps, qs := rs.Eval(x)
			jc, jpc, qc := rc.Eval(x)
			if js != jc || jps != jpc || qs != qc {
				t.Fatalf("l=%d x=%g: parallel build differs", l, x)
			}
		}
	}
}

// TestSharedBesselTableHistoryIndependent: rows served from the shared
// cache must be a pure function of (key, l) — the same bits whether the
// entry was built by a sparse request, by a wider one, or grown through a
// union extension. The build therefore always runs its recurrence at the
// key's bucketed cap, never at the request's own lmax; without that, a
// process whose first request topped out at l=38 would serve different
// j_l bits than a fresh process asking for l<=40 (the farm's
// cross-process bitwise contract breaks exactly there).
func TestSharedBesselTableHistoryIndependent(t *testing.T) {
	// Two lmax values in the same 64-bucket, like DefaultLs(40) (max 38)
	// vs a dense 2..40 request.
	sparse := []int{2, 10, 38}
	dense := []int{2, 10, 38, 40}
	const xmax = 300.0

	// The ground truth: what a fresh process building straight at the
	// bucket cap tabulates.
	direct := NewBesselTable(64, dense, besselXBucket(xmax), DefaultBesselH, nil)

	// A history-shaped cache: sparse first, then union-extended by the
	// dense request.
	old := SetBesselCacheLimit(1)
	defer SetBesselCacheLimit(old)
	SharedBesselTable([]int{500}, 100, nil) // evict whatever earlier tests cached
	SharedBesselTable(sparse, xmax, nil)
	grown := SharedBesselTable(dense, xmax, nil)

	for _, l := range dense {
		rg, ok := grown.Row(l)
		if !ok {
			t.Fatalf("grown table missing l=%d", l)
		}
		rd, _ := direct.Row(l)
		for _, x := range []float64{0.3, 5.5, 37.9, 123.4, 299.0} {
			jg, jpg, qg := rg.Eval(x)
			jd, jpd, qd := rd.Eval(x)
			if jg != jd || jpg != jpd || qg != qd {
				t.Fatalf("l=%d x=%g: union-grown row differs from fresh build", l, x)
			}
		}
	}
}

// raggedRanges are the shapes of four per-row ranges [lo, hi[i]) over
// raggedN points that the four-row kernels are tested on: equal, staggered,
// an empty common range, rows whose range is empty or ends before lo (a row
// with XLow beyond the grid).
const raggedN = 257

var raggedRanges = []struct {
	name string
	lo   int
	hi   [4]int
}{
	{"equal", 0, [4]int{raggedN, raggedN, raggedN, raggedN}},
	{"staggered", 5, [4]int{raggedN, 200, 131, 64}},
	{"unsorted", 5, [4]int{64, raggedN, 131, 200}},
	{"empty common range", 40, [4]int{raggedN, 120, 40, 90}},
	{"rows ending before lo", 40, [4]int{raggedN, 0, 17, 41}},
	{"all empty", 40, [4]int{0, 0, 0, 0}},
}

// spareLane checks the pair layout of a table with an odd row count: the
// last row sits alone in lane 0 of its pair, and the spare lane 1 is zero.
func spareLane(t *testing.T, tbl *BesselTable) {
	t.Helper()
	ls := tbl.Ls()
	if len(ls)%2 != 1 {
		t.Fatalf("%d rows: want an odd count", len(ls))
	}
	last, _ := tbl.Row(ls[len(ls)-1])
	if last.lane != 0 {
		t.Fatalf("the last of %d rows is in lane %d of its pair, want 0", len(ls), last.lane)
	}
	for i := 1; i < len(last.pair); i += 2 {
		if last.pair[i] != 0 {
			t.Fatalf("the spare lane holds %g at %d", last.pair[i], i)
		}
	}
}

// TestAccumStencil4MatchesFourAccumStencil: the four-row walk is four
// AccumStencil calls bit for bit, whatever the shape of the four ranges —
// equal, staggered, an empty common range, rows whose range is empty or
// ends before lo (a row with XLow beyond the grid) — and whichever pairs
// the four rows sit in: every window of a 7-row ladder takes two whole
// pairs, rows from three pairs, or the last row, whose pair has a spare
// lane (an odd row count). The joint walk is the Go loop bit for bit too.
func TestAccumStencil4MatchesFourAccumStencil(t *testing.T) {
	ladder := []int{2, 9, 17, 30, 44, 61, 80} // 7 rows: one group of four + 3
	tbl := NewBesselTable(80, ladder, 400, 0, nil)
	spareLane(t, tbl)
	rng := rand.New(rand.NewSource(11))
	const n = raggedN
	xs := make([]float64, n)
	sA, sB, sC := make([]float64, n), make([]float64, n), make([]float64, n)
	for p := range xs {
		xs[p] = 400 * float64(n-1-p) / float64(n-1) // falling, like y = k (tau0 - tau)
		sA[p], sB[p], sC[p] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	var st BesselStencil
	tbl.Stencil(xs, &st)
	rows := make([]BesselRow, len(ladder))
	for i, l := range ladder {
		rows[i], _ = tbl.Row(l)
	}
	for _, c := range raggedRanges {
		for g := 0; g+4 <= len(rows); g++ { // every window of four, so each row meets each range
			four := (*[4]BesselRow)(rows[g:])
			got := AccumStencil4(four, &st, c.lo, &c.hi, sA, sB, sC)
			common := max(c.lo, min(c.hi[0], c.hi[1], c.hi[2], c.hi[3]))
			joint := accumStencil4Go(four, &st, c.lo, common, sA, sB, sC)
			for r := range four {
				want := four[r].AccumStencil(&st, c.lo, c.hi[r], sA, sB, sC)
				if math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("%s, rows %d..%d, row %d: AccumStencil4 %x, AccumStencil %x",
						c.name, g, g+3, r, math.Float64bits(got[r]), math.Float64bits(want))
				}
				if loop := four[r].accumStencilFrom(joint[r], &st, common, c.hi[r], sA, sB, sC); math.Float64bits(loop) != math.Float64bits(want) {
					t.Fatalf("%s, rows %d..%d, row %d: the Go loop %x, AccumStencil %x",
						c.name, g, g+3, r, math.Float64bits(loop), math.Float64bits(want))
				}
			}
		}
	}
}

// TestAccumNodes4MatchesStencilOnNodes: on arguments that sit on the coarse
// nodes the node kernel is the interpolating one (a cubic Lagrange stencil
// at f = 0 returns the node) — for ragged ranges and every window of a
// 7-row ladder, the last row's pair with a spare lane among them — and the
// coarse copy it reads is every BesselNodeStride-th fine node bit for bit,
// whether the table was built serially, in parallel, or grown through the
// shared cache's union-extend.
func TestAccumNodes4MatchesStencilOnNodes(t *testing.T) {
	ladder := []int{2, 9, 17, 30, 44, 61, 80}
	old := SetBesselCacheLimit(1)
	defer SetBesselCacheLimit(old)
	SharedBesselTable([]int{500}, 100, nil) // evict whatever earlier tests cached
	SharedBesselTable([]int{2, 9, 80}, 400, nil)
	tables := map[string]*BesselTable{
		"serial":       NewBesselTable(80, ladder, 400, 0, nil),
		"parallel":     NewBesselTable(80, ladder, 400, 0, goPar),
		"union-extend": SharedBesselTable(ladder[2:], 400, goPar),
	}
	for name, tbl := range tables {
		for _, l := range ladder {
			row, ok := tbl.Row(l)
			if !ok {
				t.Fatalf("%s: l=%d missing", name, l)
			}
			if want := 6 * ((row.n + BesselNodeStride - 1) / BesselNodeStride); len(row.coarse) != want {
				t.Fatalf("%s l=%d: coarse copy holds %d values, want %d", name, l, len(row.coarse), want)
			}
			for m := 0; m < len(row.coarse)/6; m++ {
				for k := row.lane; k < 6; k += 2 {
					v, fine := row.coarse[6*m+k], row.pair[6*BesselNodeStride*m+k]
					if math.Float64bits(v) != math.Float64bits(fine) {
						t.Fatalf("%s l=%d: coarse node %d value %d = %x, fine node has %x", name, l, m, k,
							math.Float64bits(v), math.Float64bits(fine))
					}
				}
			}
		}
	}

	tbl := tables["serial"]
	spareLane(t, tbl)
	rng := rand.New(rand.NewSource(12))
	const n = raggedN
	const top = 300 // coarse node of point 0: x = 112.5, falling to node 44
	xs := make([]float64, n)
	sA, sB, sC := make([]float64, n), make([]float64, n), make([]float64, n)
	for p := range xs {
		xs[p] = float64((top-p)*BesselNodeStride) * tbl.H
		sA[p], sB[p], sC[p] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	var st BesselStencil
	tbl.Stencil(xs, &st)
	rows := make([]BesselRow, len(ladder))
	for i, l := range ladder {
		rows[i], _ = tbl.Row(l)
	}
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-13*math.Max(math.Abs(want), 1e-3)
	}
	for _, c := range raggedRanges {
		for g := 0; g+4 <= len(rows); g++ {
			four := (*[4]BesselRow)(rows[g:])
			got := AccumNodes4(four, top-c.lo, c.lo, &c.hi, sA, sB, sC)
			want := AccumStencil4(four, &st, c.lo, &c.hi, sA, sB, sC)
			common := max(c.lo, min(c.hi[0], c.hi[1], c.hi[2], c.hi[3]))
			joint := accumNodes4Go(four, top-c.lo, c.lo, common, sA, sB, sC)
			for r := range four {
				loop := four[r].accumNodesFrom(joint[r], top-common, common, c.hi[r], sA, sB, sC)
				if math.Float64bits(loop) != math.Float64bits(got[r]) {
					t.Fatalf("%s, rows %d..%d, row %d: the Go loop %x, AccumNodes4 %x", c.name, g, g+3, r,
						math.Float64bits(loop), math.Float64bits(got[r]))
				}
				if !near(got[r], want[r]) {
					t.Fatalf("%s, rows %d..%d, row %d: AccumNodes4 %g, AccumStencil4 %g", c.name, g, g+3, r, got[r], want[r])
				}
				if one := four[r].AccumNodes(top-c.lo, c.lo, c.hi[r], sA, sB, sC); math.Float64bits(one) != math.Float64bits(got[r]) {
					t.Fatalf("%s, rows %d..%d, row %d: AccumNodes %x, AccumNodes4 %x", c.name, g, g+3, r,
						math.Float64bits(one), math.Float64bits(got[r]))
				}
			}
		}
	}
}

// TestSharedBesselTableLookupNotBlockedByBuild: a table build runs outside
// the cache lock, so while one key's build is stuck a resident key is
// still served, and a second caller of the building key waits for that
// build instead of starting its own.
func TestSharedBesselTableLookupNotBlockedByBuild(t *testing.T) {
	resident := SharedBesselTable([]int{3, 20}, 150, nil)

	entered, release := make(chan struct{}), make(chan struct{})
	builds := 0
	stuck := func(n int, body func(int)) { // the build's parallel-for hook
		builds++
		close(entered)
		<-release
		for i := 0; i < n; i++ {
			body(i)
		}
	}
	cold := []int{700} // its own lmax bucket: no other test builds this key
	built := make(chan *BesselTable, 2)
	go func() { built <- SharedBesselTable(cold, 150, stuck) }()
	<-entered

	looked := make(chan *BesselTable)
	go func() { looked <- SharedBesselTable([]int{20, 3}, 150, nil) }()
	select {
	case got := <-looked:
		if got != resident {
			t.Fatal("resident key was rebuilt")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lookup of a resident key blocked behind another key's build")
	}

	go func() { built <- SharedBesselTable(cold, 150, stuck) }() // joins the build in flight
	select {
	case <-built:
		t.Fatal("a caller of the building key returned before the build landed")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	a, b := <-built, <-built
	if a != b || !a.Has(700) {
		t.Fatal("same-key callers did not share one finished build")
	}
	if builds != 1 {
		t.Fatalf("%d builds for one cold key, want 1", builds)
	}
}
