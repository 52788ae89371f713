package dispatch

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"plinger/internal/core"
	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
	"plinger/internal/mp/fifomp"
	"plinger/internal/mp/tcpmp"
)

func fakeResult(k float64, lmax int) *core.Result {
	r := &core.Result{
		K: k, Tau: 11000, A: 1, Gauge: core.Synchronous, LMax: lmax,
		DeltaC: -5, DeltaB: -4.5, DeltaG: 0.1, DeltaNu: 0.05, DeltaHNu: 0.01,
		ThetaC: 0, ThetaB: 0.2, Eta: 1.5, HDot: 0.4,
		MaxConstraintResidual: 1e-4, Seconds: 0.5, Flops: 1e6,
		ThetaL:  make([]float64, lmax+1),
		ThetaPL: make([]float64, lmax+1),
	}
	for l := range r.ThetaL {
		r.ThetaL[l] = math.Sin(float64(l)+k) / float64(l+1)
		r.ThetaPL[l] = math.Cos(float64(l)*k) / float64(l+3)
	}
	r.Stats.Steps = 100
	r.Stats.Evals = 800
	return r
}

func TestPackUnpackRoundTrip(t *testing.T) {
	r := fakeResult(0.05, 17)
	sum := packSummary(3, r)
	mom := packMoments(3, r)
	if len(sum) != 21 {
		t.Fatalf("summary block length %d, want the paper's 21", len(sum))
	}
	if len(mom) != 8+2*(17+1) {
		t.Fatalf("moment block length %d, want 8+2(lmax+1)", len(mom))
	}
	ik, got, err := unpackResult(sum, mom)
	if err != nil {
		t.Fatal(err)
	}
	if ik != 3 {
		t.Fatalf("ik = %d", ik)
	}
	if got.K != r.K || got.DeltaC != r.DeltaC || got.Eta != r.Eta ||
		got.Stats.Evals != r.Stats.Evals || got.LMax != r.LMax {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for l := range r.ThetaL {
		if got.ThetaL[l] != r.ThetaL[l] || got.ThetaPL[l] != r.ThetaPL[l] {
			t.Fatalf("moment %d mismatch", l)
		}
	}
}

func TestUnpackRejectsCorruptBlocks(t *testing.T) {
	r := fakeResult(0.1, 8)
	sum := packSummary(1, r)
	mom := packMoments(2, r) // mismatched ik
	if _, _, err := unpackResult(sum, mom); err == nil {
		t.Fatal("ik mismatch accepted")
	}
	if _, _, err := unpackResult(sum[:5], packMoments(1, r)); err == nil {
		t.Fatal("short summary accepted")
	}
	if _, _, err := unpackResult(sum, mom[:3]); err == nil {
		t.Fatal("short moments accepted")
	}
}

// Property: pack/unpack is the identity for any finite payload.
func TestQuickPackUnpack(t *testing.T) {
	f := func(kRaw float64, ikRaw uint16) bool {
		k := math.Mod(math.Abs(kRaw), 10.0) + 1e-4
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return true
		}
		ik := int(ikRaw%1000) + 1
		r := fakeResult(k, 12)
		gotIK, got, err := unpackResult(packSummary(ik, r), packMoments(ik, r))
		if err != nil || gotIK != ik {
			return false
		}
		return got.K == r.K && got.HDot == r.HDot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// runParallel executes a full master/worker run over the given endpoints.
func runParallel(t *testing.T, eps []mp.Endpoint, ks []float64, mode core.Params, o MasterOptions) (*Sweep, *RunStats) {
	t.Helper()
	m := model(t)
	var wg sync.WaitGroup
	for w := 1; w < len(eps); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := Worker(eps[w], m, ks, mode, nil); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	sw, st, _, err := RunMaster(context.Background(), eps[0], m, ks, mode, o)
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	return sw, st
}

func TestMasterWorkerChanTransport(t *testing.T) {
	_, eps, err := chanmp.New(4) // 1 master + 3 workers
	if err != nil {
		t.Fatal(err)
	}
	ks := testKs()
	res, st := runParallel(t, eps, ks, smallMode(), MasterOptions{})
	for i, r := range res.Results {
		if r == nil {
			t.Fatalf("missing result %d", i)
		}
		if r.K != ks[i] {
			t.Fatalf("result %d has k=%g want %g", i, r.K, ks[i])
		}
	}
	if st.NProc != 4 || st.Wallclock <= 0 || st.BytesMoved == 0 {
		t.Fatalf("telemetry: %+v", st)
	}
	if len(st.Workers) == 0 {
		t.Fatal("no worker timings")
	}
	modes := 0
	var cpu, flops float64
	for _, w := range st.Workers {
		modes += w.Modes
		cpu += w.Seconds
		flops += w.Flops
	}
	if modes != len(ks) {
		t.Fatalf("workers computed %d modes, want %d", modes, len(ks))
	}
	if cpu <= 0 || flops <= 0 {
		t.Fatalf("busy time %g s, %g flops", cpu, flops)
	}
}

// The same protocol must run unchanged over the strict arrival-order (MPL)
// transport — the compatibility the paper asserts in Section 4.
func TestMasterWorkerFIFOTransport(t *testing.T) {
	_, eps, err := fifomp.New(3)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runParallel(t, eps, testKs(), smallMode(), MasterOptions{})
	for i, r := range res.Results {
		if r == nil {
			t.Fatalf("missing result %d", i)
		}
	}
}

func TestMasterWorkerTCPTransport(t *testing.T) {
	world, hangup, err := tcpmp.Loopback(3)
	if err != nil {
		t.Fatal(err)
	}
	defer hangup()
	eps := []mp.Endpoint{world[0], world[1], world[2]}
	m := world[0]
	res, _ := runParallel(t, eps, testKs()[:4], smallMode(), MasterOptions{})
	for i, r := range res.Results {
		if r == nil {
			t.Fatalf("missing result %d", i)
		}
	}
	if m.BytesMoved() == 0 {
		t.Fatal("no bytes moved")
	}
}

// Results must be byte-identical regardless of transport and worker count —
// determinism of the physics under the parallel decomposition.
func TestParallelDeterminism(t *testing.T) {
	ks := testKs()
	run := func(nproc int) *Sweep {
		_, eps, err := chanmp.New(nproc)
		if err != nil {
			t.Fatal(err)
		}
		sw, _ := runParallel(t, eps, ks, smallMode(), MasterOptions{})
		return sw
	}
	a := run(2)
	b := run(5)
	for i := range ks {
		if a.Results[i].DeltaC != b.Results[i].DeltaC {
			t.Fatalf("delta_c differs with worker count at k=%g: %g vs %g",
				ks[i], a.Results[i].DeltaC, b.Results[i].DeltaC)
		}
		for l := range a.Results[i].ThetaL {
			if a.Results[i].ThetaL[l] != b.Results[i].ThetaL[l] {
				t.Fatalf("Theta_%d differs with worker count", l)
			}
		}
	}
}

func TestHandOutOrders(t *testing.T) {
	// Blocks leave largest-first but results come back in input order.
	ks := testKs()
	_, eps, err := chanmp.New(3)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runParallel(t, eps, ks, smallMode(), MasterOptions{})
	for i, r := range res.Results {
		if r == nil {
			t.Fatalf("missing result %d", i)
		}
		if r.K != ks[i] {
			t.Fatalf("result %d has k=%g want %g", i, r.K, ks[i])
		}
	}
}

func TestPerKLMaxAssignment(t *testing.T) {
	// The per-k cutoff rides in the assignment message and overrides the
	// broadcast global.
	ks := testKs()[:3]
	mode := smallMode()
	mode.LMax = 200
	perk := perKLMaxTable(ks, mode.TauEnd, mode.LMax, true)
	if perk[0] == perk[2] || perk[2] >= mode.LMax {
		t.Fatalf("per-k cutoffs %v do not vary below the global %d", perk, mode.LMax)
	}
	_, eps, err := chanmp.New(3)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runParallel(t, eps, ks, mode, MasterOptions{AdaptLMax: true})
	for i, r := range res.Results {
		if r.LMax != perk[i] {
			t.Fatalf("mode %d ran with lmax %d, want %d", i, r.LMax, perk[i])
		}
	}
}

func TestMasterWorkerSources(t *testing.T) {
	// With KeepSources the tag-7 block ships the line-of-sight samples,
	// bitwise identical to a direct serial evolution.
	m := model(t)
	mode := smallMode()
	mode.Gauge = core.ConformalNewtonian
	mode.KeepSources = true
	ks := testKs()[:3]
	_, eps, err := chanmp.New(3)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runParallel(t, eps, ks, mode, MasterOptions{})
	for i, r := range res.Results {
		if r == nil || len(r.Sources) == 0 {
			t.Fatalf("mode %d arrived without sources", i)
		}
		p := mode
		p.K = ks[i]
		direct, err := m.Evolve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Sources, direct.Sources) {
			t.Fatalf("mode %d sources differ from serial evolution", i)
		}
	}
}

// TestOutputFiles: the unit_1 and unit_2 records of a sweep are the tag-4
// and tag-5 blocks of its results packed again, one mode after another in
// grid order, over every transport — whatever order the modes came in.
func TestOutputFiles(t *testing.T) {
	m := model(t)
	ks := testKs()[:4]
	for _, transport := range []string{"chan", "fifo", "tcp"} {
		d, cleanup, err := NewMP(m, transport, 2)
		if err != nil {
			t.Fatal(err)
		}
		sw, _, err := d.Run(context.Background(), ks, smallMode())
		cleanup()
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		var ascii, bin bytes.Buffer
		if err := WriteRecords(&ascii, &bin, sw); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(ascii.String()), "\n")
		recs, err := readBinaryRecords(&bin)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != len(ks) || len(recs) != len(ks) {
			t.Fatalf("%s: %d ascii lines and %d binary records, want %d each", transport, len(lines), len(recs), len(ks))
		}
		for i, r := range sw.Results {
			var want bytes.Buffer
			if err := writeASCIIRecord(&want, packSummary(i+1, r)); err != nil {
				t.Fatal(err)
			}
			if lines[i]+"\n" != want.String() {
				t.Fatalf("%s: ascii record %d is %q, want %q", transport, i, lines[i], want.String())
			}
			if got := len(strings.Fields(lines[i])); got != asciiRecordLen {
				t.Fatalf("%s: ascii record has %d fields, want the paper's 20", transport, got)
			}
			if !sameBits(recs[i], packMoments(i+1, r)) {
				t.Fatalf("%s: binary record %d is not the tag-5 block of mode %d", transport, i, i+1)
			}
		}
	}
}

func TestSingleWorkerMatchesSerial(t *testing.T) {
	// PLINGER with one worker must equal a direct core evolution.
	m := model(t)
	ks := []float64{0.03}
	_, eps, err := chanmp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runParallel(t, eps, ks, smallMode(), MasterOptions{})
	p := smallMode()
	p.K = 0.03
	direct, err := m.Evolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].DeltaC != direct.DeltaC || res.Results[0].Eta != direct.Eta {
		t.Fatalf("parallel result differs from serial: %g vs %g",
			res.Results[0].DeltaC, direct.DeltaC)
	}
}

func TestMasterRejectsEmptyWork(t *testing.T) {
	_, eps, err := chanmp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RunMaster(context.Background(), eps[0], model(t), nil, smallMode(), MasterOptions{}); err == nil {
		t.Fatal("empty k list accepted")
	}
}

func TestSourcesRoundTrip(t *testing.T) {
	r := fakeResult(0.05, 9)
	r.Sources = []core.Sample{
		{Tau: 1, A: 0.01, Theta0: 0.1, Psi: -0.2, VB: 0.3, Kdot: 2, DeltaC: -1, Residual: 1e-5},
		{Tau: 2, Eta: 0.5, HDot: -0.1, EtaDot: 0.02, Alpha: 0.3, Pi: 0.01, Kappa: 4, DeltaB: -0.5},
	}
	y := packSources(4, r)
	got, err := unpackSources(4, y)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r.Sources) {
		t.Fatalf("sources round trip mismatch: %+v", got)
	}
	if _, err := unpackSources(5, y); err == nil {
		t.Fatal("ik mismatch accepted")
	}
	if _, err := unpackSources(4, y[:len(y)-1]); err == nil {
		t.Fatal("truncated block accepted")
	}
	y[2] = 5
	if _, err := unpackSources(4, y); err == nil {
		t.Fatal("field-count skew accepted")
	}
}

func TestWriteASCIIRecordValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := writeASCIIRecord(&buf, make([]float64, 7)); err == nil {
		t.Fatal("short summary block accepted")
	}
	if buf.Len() != 0 {
		t.Fatal("short block partially written")
	}
	if err := writeASCIIRecord(&buf, packSummary(1, fakeResult(0.05, 8))); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Fields(buf.String())); got != asciiRecordLen {
		t.Fatalf("ascii record has %d fields, want %d", got, asciiRecordLen)
	}
}

func TestMessageSizesMatchPaper(t *testing.T) {
	// "the results are gathered as a single message of roughly 150 bytes
	// ... to a maximum of 80 kbyte": the tag-5 block is 8*(8+2(lmax+1))
	// bytes. With lmax ~ 10 (small k) that is ~240 bytes; with the paper's
	// lmax = 5000 it is ~80 kB. Verify the formula at both ends.
	small := packMoments(1, fakeResult(0.001, 10))
	if got := 8 * len(small); got > 400 {
		t.Fatalf("small-k message %d bytes, want a few hundred", got)
	}
	big := packMoments(1, fakeResult(0.5, 5000))
	if got := 8 * len(big); got < 75000 || got > 90000 {
		t.Fatalf("production-lmax message %d bytes, want ~80 kB as in the paper", got)
	}
}

// readBinaryRecords parses a unit_2-style stream back into moment blocks.
func readBinaryRecords(r io.Reader) ([][]float64, error) {
	var out [][]float64
	for {
		var n int64
		err := binary.Read(r, binary.LittleEndian, &n)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1<<26 {
			return nil, fmt.Errorf("corrupt record length %d", n)
		}
		rec := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
