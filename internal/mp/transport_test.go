package mp_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
	"plinger/internal/mp/fifomp"
	"plinger/internal/mp/tcpmp"
)

// worlds returns constructors for every transport so each behavioural test
// runs against all of them — the paper's "choice of library" axis.
func worlds(t *testing.T) map[string]func(n int) []mp.Endpoint {
	t.Helper()
	return map[string]func(n int) []mp.Endpoint{
		"chanmp": func(n int) []mp.Endpoint {
			_, eps, err := chanmp.New(n)
			if err != nil {
				t.Fatal(err)
			}
			return eps
		},
		"fifomp": func(n int) []mp.Endpoint {
			_, eps, err := fifomp.New(n)
			if err != nil {
				t.Fatal(err)
			}
			return eps
		},
		"tcpmp": func(n int) []mp.Endpoint {
			world, hangup, err := tcpmp.Loopback(n)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(hangup)
			eps := make([]mp.Endpoint, n)
			for i, ep := range world {
				eps[i] = ep
			}
			return eps
		},
	}
}

func TestRankAndSize(t *testing.T) {
	for name, mk := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			eps := mk(4)
			seen := map[int]bool{}
			for _, e := range eps {
				if e.Size() != 4 {
					t.Fatalf("size %d", e.Size())
				}
				if e.Master() != 0 {
					t.Fatalf("master %d", e.Master())
				}
				seen[e.Rank()] = true
			}
			for r := 0; r < 4; r++ {
				if !seen[r] {
					t.Fatalf("missing rank %d", r)
				}
			}
		})
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	for name, mk := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			eps := mk(2)
			payload := []float64{3.14, -2.71, 0, 1e300, -1e-300}
			done := make(chan error, 1)
			go func() {
				m, err := eps[1].Recv(7, 0)
				if err != nil {
					done <- err
					return
				}
				if len(m.Data) != len(payload) {
					done <- fmt.Errorf("len %d", len(m.Data))
					return
				}
				for i := range payload {
					if m.Data[i] != payload[i] {
						done <- fmt.Errorf("payload[%d] = %g", i, m.Data[i])
						return
					}
				}
				done <- nil
			}()
			if err := eps[0].Send(1, 7, payload); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBroadcastReachesAllWorkers(t *testing.T) {
	for name, mk := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			eps := mk(5)
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for i := 1; i < 5; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					m, err := eps[i].Recv(1, 0)
					if err != nil {
						errs <- err
						return
					}
					if m.Data[0] != 99 {
						errs <- fmt.Errorf("rank %d: got %g", i, m.Data[0])
					}
				}(i)
			}
			if err := eps[0].Bcast(1, []float64{99}); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func TestProbeIdentifiesSender(t *testing.T) {
	for name, mk := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			eps := mk(3)
			if err := eps[2].Send(0, 4, []float64{1, 2}); err != nil {
				t.Fatal(err)
			}
			tag, src, ok, err := eps[0].ProbeTimeout(mp.AnyTag, mp.AnySource, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || tag != 4 || src != 2 {
				t.Fatalf("probe = (%d, %d, %v)", tag, src, ok)
			}
			m, err := eps[0].Recv(tag, src)
			if err != nil || len(m.Data) != 2 {
				t.Fatalf("recv after probe: %v %v", m, err)
			}
		})
	}
}

// The paper's master loop probes for any message, then receives by the
// revealed (tag, source). Exercise that exact pattern under concurrency,
// through the timed probe the fault-tolerant master uses.
func TestMasterWorkerProbePattern(t *testing.T) {
	for name, mk := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			const nw = 4
			eps := mk(nw + 1)
			var wg sync.WaitGroup
			for w := 1; w <= nw; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := 0; j < 10; j++ {
						if err := eps[w].Send(0, 2, []float64{float64(w), float64(j)}); err != nil {
							t.Error(err)
							return
						}
						// Wait for the ack before sending again (the
						// PLINGER worker always alternates).
						if _, err := eps[w].Recv(3, 0); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			counts := map[int]int{}
			for recvd := 0; recvd < nw*10; recvd++ {
				tag, src, ok, err := eps[0].ProbeTimeout(mp.AnyTag, mp.AnySource, 5*time.Second)
				if err != nil || !ok {
					t.Fatalf("probe: %v, %v", ok, err)
				}
				m, err := eps[0].Recv(tag, src)
				if err != nil {
					t.Fatal(err)
				}
				if int(m.Data[0]) != src {
					t.Fatalf("message claims worker %g but came from %d", m.Data[0], src)
				}
				counts[src]++
				if err := eps[0].Send(src, 3, []float64{1}); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			for w := 1; w <= nw; w++ {
				if counts[w] != 10 {
					t.Fatalf("worker %d: %d messages", w, counts[w])
				}
			}
		})
	}
}

func TestSingleProcessWorldIsValid(t *testing.T) {
	for name, mk := range worlds(t) {
		t.Run(name, func(t *testing.T) {
			eps := mk(1)
			if eps[0].Rank() != 0 || eps[0].Size() != 1 {
				t.Fatal("degenerate world broken")
			}
			// Bcast to nobody must succeed.
			if err := eps[0].Bcast(1, []float64{1}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBytesAccounting(t *testing.T) {
	w, eps, err := chanmp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(1, 1, make([]float64, 100)); err != nil {
		t.Fatal(err)
	}
	if got := w.BytesMoved(); got != 800 {
		t.Fatalf("BytesMoved = %d, want 800", got)
	}
}

func TestChanmpInvalidDestination(t *testing.T) {
	_, eps, err := chanmp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(5, 1, nil); err == nil {
		t.Fatal("want error for out-of-range destination")
	}
	if _, _, err := chanmp.New(0); err == nil {
		t.Fatal("want error for empty world")
	}
	if _, _, err := fifomp.New(0); err == nil {
		t.Fatal("want error for empty fifo world")
	}
}

func TestTCPLargePayload(t *testing.T) {
	eps := worlds(t)["tcpmp"](2)
	// 80 kB is the paper's largest message; send 10x that.
	data := make([]float64, 100000)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	go func() {
		if err := eps[0].Send(1, 5, data); err != nil {
			t.Error(err)
		}
	}()
	m, err := eps[1].Recv(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if m.Data[i] != data[i] {
			t.Fatalf("large payload corrupted at %d", i)
		}
	}
	if n := eps[0].(*tcpmp.Endpoint).BytesMoved(); n != 800000 {
		t.Fatalf("master bytes %d", n)
	}
}
