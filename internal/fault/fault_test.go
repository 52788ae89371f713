package fault_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"plinger/internal/fault"
	"plinger/internal/mp"
	"plinger/internal/mp/chanmp"
)

var (
	_ mp.Endpoint       = (*fault.Endpoint)(nil)
	_ http.RoundTripper = (*fault.Transport)(nil)
	_ net.Conn          = (*fault.Conn)(nil)
)

// world builds a two-node chanmp world: [master, worker].
func world(t *testing.T) (mp.Endpoint, mp.Endpoint) {
	t.Helper()
	_, eps, err := chanmp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	return eps[0], eps[1]
}

// drain counts the messages waiting at ep, using the timed probe so an
// empty mailbox terminates the count instead of blocking it.
func drain(t *testing.T, ep mp.Endpoint) int {
	t.Helper()
	n := 0
	for {
		tag, src, ok, err := ep.ProbeTimeout(mp.AnyTag, mp.AnySource, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		if _, err := ep.Recv(tag, src); err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// The seed contract: a fixed (Plan, operation sequence) pair injects an
// identical fault pattern on every run, and every fired fault is visible in
// Stats — drops silently succeed, fails return ErrInjected, and the
// survivors all arrive.
func TestSendFaultsDeterministic(t *testing.T) {
	const sends = 200
	plan := fault.Plan{Seed: 7, Drop: 0.3, Fail: 0.2}
	run := func() fault.Stats {
		master, workerEP := world(t)
		defer master.Close()
		defer workerEP.Close()
		f := fault.Wrap(master, plan)
		failed := 0
		for i := 0; i < sends; i++ {
			if err := f.Send(1, 9, []float64{float64(i)}); err != nil {
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("send %d: %v", i, err)
				}
				failed++
			}
		}
		st := f.Stats()
		if failed != st.Fails {
			t.Fatalf("%d sends failed but Stats counts %d fails", failed, st.Fails)
		}
		if got := drain(t, workerEP); got != sends-st.Drops-st.Fails {
			t.Fatalf("%d messages arrived, want %d (= %d sends - %d drops - %d fails)",
				got, sends-st.Drops-st.Fails, sends, st.Drops, st.Fails)
		}
		return st
	}
	st1, st2 := run(), run()
	if st1 != st2 {
		t.Fatalf("same seed, different fault patterns: %+v vs %+v", st1, st2)
	}
	if st1.Drops == 0 || st1.Fails == 0 {
		t.Fatalf("fault classes never fired over %d sends: %+v", sends, st1)
	}
}

// {After: 2, Then: Kill} delivers the second assignment, then turns the
// endpoint into a dead process: every later operation fails with
// ErrInjected, and the wrapped endpoint has left the world.
func TestKillAfterAssign(t *testing.T) {
	master, workerEP := world(t)
	defer master.Close()
	f := fault.Wrap(workerEP, fault.Plan{Seed: 1, After: 2, Then: fault.Kill})
	for i := 0; i < 2; i++ {
		if err := master.Send(1, 3, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
		m, err := f.Recv(3, 0)
		if err != nil {
			t.Fatalf("assignment %d must still be delivered: %v", i, err)
		}
		if m.Data[0] != float64(i) {
			t.Fatalf("assignment %d payload %v", i, m.Data)
		}
	}
	// The kill closed the wrapped endpoint at once: peers delivering to the
	// dead process see a transport error before it makes another call.
	if err := master.Send(1, 3, []float64{9}); err == nil {
		t.Fatal("send to killed process succeeded")
	}
	if err := f.Send(0, 4, []float64{1}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("send on killed endpoint: %v", err)
	}
	if err := f.Bcast(4, []float64{1}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("bcast on killed endpoint: %v", err)
	}
	if _, _, _, err := f.ProbeTimeout(mp.AnyTag, mp.AnySource, time.Millisecond); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("timed probe on killed endpoint: %v", err)
	}
	if _, err := f.Recv(mp.AnyTag, mp.AnySource); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("recv on killed endpoint: %v", err)
	}
	if st := f.Stats(); st.Ops != 2 || st.Killed != 4 {
		t.Fatalf("stats %+v, want 2 assignments and 4 refused operations", st)
	}
}

// {After: 1, Then: Hang} wedges every later operation until Close — the
// failure only a deadline can detect, since no error ever surfaces.
func TestHangAfterAssign(t *testing.T) {
	master, workerEP := world(t)
	defer master.Close()
	f := fault.Wrap(workerEP, fault.Plan{Seed: 1, After: 1, Then: fault.Hang})
	if err := master.Send(1, 3, []float64{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recv(3, 0); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- f.Send(0, 4, []float64{1}) }()
	select {
	case err := <-sent:
		t.Fatalf("send on hung endpoint returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if st := f.Stats(); st.Hung != 1 {
		t.Fatalf("stats %+v, want one hung send", st)
	}
	f.Close()
	select {
	case err := <-sent:
		if !errors.Is(err, mp.ErrClosed) {
			t.Fatalf("hung send after Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("hung send not released by Close")
	}
}

func doGet(t *testing.T, c *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Do(req)
}

// The same seed must replay the same 503 pattern — that is what makes the
// serving layer's chaos matrix reproducible.
func TestTransportDeterministicFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	pattern := func() []int {
		ft := fault.NewTransport(nil, fault.Plan{Seed: 7, Fail: 0.4}, nil)
		c := &http.Client{Transport: ft}
		var codes []int
		for i := 0; i < 40; i++ {
			resp, err := doGet(t, c, srv.URL)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			resp.Body.Close()
			codes = append(codes, resp.StatusCode)
		}
		if st := ft.Stats(); st.Fails == 0 || st.Fails == st.Ops {
			t.Fatalf("degenerate 503 pattern: %+v", st)
		}
		return codes
	}
	a, b := pattern(), pattern()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: run A got %d, run B got %d — not deterministic", i, a[i], b[i])
		}
	}
}

func TestTransportKillAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	ft := fault.NewTransport(nil, fault.Plan{After: 2, Then: fault.Kill}, nil)
	c := &http.Client{Transport: ft}
	for i := 1; i <= 2; i++ {
		resp, err := doGet(t, c, srv.URL)
		if err != nil {
			t.Fatalf("request %d before the kill failed: %v", i, err)
		}
		resp.Body.Close()
	}
	for i := 3; i <= 5; i++ {
		if _, err := doGet(t, c, srv.URL); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("request %d after the kill: err=%v, want injected", i, err)
		}
	}
	if st := ft.Stats(); st.Ops != 5 || st.Killed != 3 {
		t.Fatalf("stats %+v, want 5 requests and 3 killed", st)
	}
}

// A hung transport must release the caller the moment its context is done
// — the per-hop timeout is the only defense against a wedged peer.
func TestTransportHangHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	ft := fault.NewTransport(nil, fault.Plan{Then: fault.Hang}, nil)
	c := &http.Client{Transport: ft}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := c.Do(req); err == nil {
		t.Fatal("hung request succeeded")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("hung request took %s to release after context expiry", el)
	}
	if st := ft.Stats(); st.Hung != 1 {
		t.Fatalf("stats %+v, want one hung request", st)
	}
}

// A partition is {Then: Kill} on the requests match selects; the others
// pass untouched and are not counted.
func TestTransportPartitionByMatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	ft := fault.NewTransport(nil, fault.Plan{Then: fault.Kill}, func(req *http.Request) bool {
		return strings.HasSuffix(req.URL.Path, "/blocked")
	})
	c := &http.Client{Transport: ft}
	if _, err := doGet(t, c, srv.URL+"/blocked"); err == nil {
		t.Fatal("partitioned request got through")
	}
	resp, err := doGet(t, c, srv.URL+"/open")
	if err != nil {
		t.Fatalf("request outside the partition faulted: %v", err)
	}
	resp.Body.Close()
	if st := ft.Stats(); st.Ops != 1 || st.Killed != 1 {
		t.Fatalf("stats %+v: match must exempt the other requests entirely", st)
	}
}

// {After: 3, Then: Kill} on a connection lets three writes through, then
// refuses the fourth and closes the connection under it — a worker dying
// mid-protocol.
func TestConnKillAfterWrites(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	f := fault.WrapConn(a, fault.Plan{After: 3, Then: fault.Kill})
	got := make(chan []byte, 1)
	go func() {
		all, _ := io.ReadAll(b)
		got <- all
	}()
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte{byte('a' + i)}); err != nil {
			t.Fatalf("write %d before the kill: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("d")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write after the kill: %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("read after the kill: %v", err)
	}
	if all := <-got; string(all) != "abc" {
		t.Fatalf("peer read %q, want the three writes and then EOF", all)
	}
	if st := f.Stats(); st.Ops != 4 || st.Killed != 2 {
		t.Fatalf("stats %+v, want 4 writes and 2 refused operations", st)
	}
}

// {Then: Hang} on a connection blocks its first write until Close.
func TestConnHangUntilClose(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	f := fault.WrapConn(a, fault.Plan{Then: fault.Hang})
	wrote := make(chan error, 1)
	go func() {
		_, err := f.Write([]byte("x"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("hung write returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.Close()
	select {
	case err := <-wrote:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("hung write after Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("hung write not released by Close")
	}
	if st := f.Stats(); st.Ops != 1 || st.Hung != 1 {
		t.Fatalf("stats %+v, want one hung write", st)
	}
}
