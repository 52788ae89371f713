package tcpmp

// Hardening tests for the fixed-world join: a dialer that never finishes its
// join costs only its own connection, never the world, and no byte sequence
// a dialer sends can panic the listener or take a rank it did not join for.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"plinger/internal/mp"
)

// joinWorkers dials n workers into the listener concurrently.
func joinWorkers(t *testing.T, addr string, n int) []*Endpoint {
	t.Helper()
	ws := make([]*Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i], errs[i] = Dial(addr)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d join: %v", i, err)
		}
		t.Cleanup(func() { ws[i].Close() })
	}
	return ws
}

// TestRendezvousSurvivesPartialHandshakeLoss loses two dialers partway
// through their join — one dies with an RST after half the magic word, one
// presents the wrong word — before two real workers dial. The real workers
// must take ranks 1 and 2 of the world of 3 and talk to the master.
func TestRendezvousSurvivesPartialHandshakeLoss(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for _, word := range [][]byte{{0x47, 0x4e}, {1, 2, 3, 4}} {
		c, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(word); err != nil {
			t.Fatal(err)
		}
		c.(*net.TCPConn).SetLinger(0) // die with an RST, not a graceful FIN
		c.Close()
	}

	ws := joinWorkers(t, l.Addr(), 2)
	m := l.Accept()
	if ws[0].Rank()+ws[1].Rank() != 3 || ws[0].Size() != 3 || ws[1].Size() != 3 || m.Size() != 3 {
		t.Fatalf("ranks %d, %d of %d/%d/%d, want 1 and 2 of 3", ws[0].Rank(), ws[1].Rank(), ws[0].Size(), ws[1].Size(), m.Size())
	}
	want := []float64{1.5, -2.25, 3.125}
	for _, w := range ws {
		if err := w.Send(0, 7, want); err != nil {
			t.Fatal(err)
		}
		msg, err := m.Recv(7, w.Rank())
		if err != nil {
			t.Fatal(err)
		}
		if len(msg.Data) != len(want) || msg.Data[0] != want[0] || msg.Data[2] != want[2] {
			t.Fatalf("frame from rank %d corrupted: %v", w.Rank(), msg.Data)
		}
		if err := m.Send(w.Rank(), 8, want); err != nil {
			t.Fatal(err)
		}
		if msg, err := w.Recv(8, 0); err != nil || len(msg.Data) != len(want) {
			t.Fatalf("rank %d received %v, %v", w.Rank(), msg, err)
		}
	}
}

// TestMuteDialerCostsOnlyItsConnection dials in a connection that never
// speaks: the real workers join beside it at once, the listener closes it
// when the join timeout expires, and a dialer after the world is full is
// turned away.
func TestMuteDialerCostsOnlyItsConnection(t *testing.T) {
	old := joinTimeout
	joinTimeout = 100 * time.Millisecond
	defer func() { joinTimeout = old }()

	l, err := Listen("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mute, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()

	joinWorkers(t, l.Addr(), 2)
	l.Accept()
	mute.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := mute.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("mute dialer read %v, want the listener's close", err)
	}
	if w, err := Dial(l.Addr()); err == nil {
		w.Close()
		t.Fatalf("a dialer joined a full world as rank %d", w.Rank())
	}
}

// TestMalformedFrameClosesWorker: a master that sends an impossible frame
// length is dropped — the worker's mailbox and connection close.
func TestMalformedFrameClosesWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			closed <- err
			return
		}
		defer c.Close()
		var m uint32
		binary.Read(c, binary.LittleEndian, &m)
		binary.Write(c, binary.LittleEndian, []int32{1, 2, KindData, 5, -7})
		_, err = c.Read(make([]byte, 1))
		closed <- err
	}()
	w, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Recv(5, mp.AnySource); !errors.Is(err, mp.ErrClosed) {
		t.Fatalf("Recv after garbage: %v, want ErrClosed", err)
	}
	if err := <-closed; err != io.EOF {
		t.Fatalf("master side read %v, want the worker's close", err)
	}
}

type noDeadline struct{ net.Conn }

func (noDeadline) SetDeadline(time.Time) error { return nil }

// FuzzJoin feeds arbitrary bytes to the listener of a world of two as one
// dialer's whole stream, over a pipe. Whatever they are, nothing panics, the
// listener closes the connection once the stream ends, allocation stays
// within FuzzReadFrame's bound, and the world changes only as far as the
// bytes join it: a stream that does not open with the magic word takes no
// rank and leaves the mailbox empty, and one that does takes rank 1 and leaves
// in the mailbox only whole data frames it sent, in order.
func FuzzJoin(f *testing.F) {
	join := binary.LittleEndian.AppendUint32(nil, magic)
	frame := func(kind, tag int32, payload []byte) []byte {
		var b bytes.Buffer
		mp.WriteFrame(&b, kind, tag, payload)
		return b.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add(join)
	f.Add(append(join, frame(KindData, 2, mp.EncodeFloats([]float64{1, -2}))...))
	f.Add(append(append(join, frame(KindData, 3, nil)...), frame(4, 0, []byte("{}"))...))
	f.Add(append(join, frame(KindData, 2, []byte{1, 2, 3})...))
	f.Fuzz(func(t *testing.T, in []byte) {
		// A joined worker's frames queue in the master's mailbox, an empty one
		// at about eight times its 12 bytes: the bound's 1 MiB slack absorbs
		// that for inputs up to this size.
		if len(in) > 64<<10 {
			return
		}
		l := newListener(2)
		srv, cli := net.Pipe()
		// A pipe's deadline timers outlive it and would fire, allocating,
		// into later runs: the join deadline has its own test above.
		srv = noDeadline{srv}
		joined := bytes.HasPrefix(in, join)
		go func() {
			rest := in
			if joined {
				// Write the rest only once the rank is read, as a dialer does.
				cli.Write(in[:4])
				io.ReadFull(cli, make([]byte, 8))
				rest = in[4:]
			}
			cli.Write(rest)
			cli.Close()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.join(srv)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+5*uint64(len(in))+4096 {
			t.Fatalf("%d input bytes cost %d allocated", len(in), n)
		}
		if _, err := srv.Read(make([]byte, 1)); err != io.ErrClosedPipe {
			t.Fatalf("listener left the connection open: %v", err)
		}
		if taken := l.next - 1; taken != 0 && !joined || taken != 1 && joined {
			t.Fatalf("stream took %d ranks, joined %v", taken, joined)
		}
		var sent bytes.Buffer
		for l.master.Len() > 0 {
			msg, _ := l.master.Recv(mp.AnyTag, mp.AnySource)
			if msg.Source != 1 {
				t.Fatalf("message from rank %d", msg.Source)
			}
			mp.WriteFrame(&sent, KindData, int32(msg.Tag), mp.EncodeFloats(msg.Data))
		}
		if sent.Len() > 0 && !bytes.HasPrefix(in[4:], sent.Bytes()) {
			t.Fatalf("mailbox re-encodes as %x, not a prefix of %x", sent.Bytes(), in[4:])
		}
	})
}
