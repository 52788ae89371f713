package tcpmp

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"plinger/internal/mp"
)

// TestMalformedFrameClosesWorker: a master that sends an impossible frame
// length is dropped — the worker's mailbox closes, and so does the
// connection, which the master sees as a send that fails.
func TestMalformedFrameClosesWorker(t *testing.T) {
	eps, hangup, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hangup()
	m, w := eps[0], eps[1]
	if err := binary.Write(m.conns[1], binary.LittleEndian, []int32{KindData, 5, -7}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Recv(5, mp.AnySource); !errors.Is(err, mp.ErrClosed) {
		t.Fatalf("Recv after garbage: %v, want ErrClosed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); m.Send(1, 5, []float64{1}) == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the master can still send to a worker that closed its connection")
		}
	}
}
