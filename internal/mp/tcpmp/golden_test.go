package tcpmp

// Golden frames: the exact bytes tcpmp puts on the wire, pinned as hex so a
// change to how frames are built cannot move them unnoticed. A data frame is
// three little-endian int32 words — KindData, the tag, the payload's length
// in bytes — then the little-endian doubles. The master and a worker write it
// alike, in a loopback world and in a farm, which sends through the same
// endpoints.

import (
	"encoding/hex"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"plinger/internal/mp"
)

// goldenData covers a plain value, a signed zero and a NaN with payload bits,
// all of which must cross the wire bit for bit.
var goldenData = []float64{1.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001)}

const (
	// goldenSend is a Send of goldenData at tag 5, by either side.
	goldenSend = "07000000" + "05000000" + "18000000" +
		"000000000000f83f" + "0000000000000080" + "010000000000f87f"
	// goldenRaw is a frame a raw worker sends: tag 4, {-2.25, 1}.
	goldenRaw = "07000000" + "04000000" + "10000000" +
		"00000000000002c0" + "000000000000f03f"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readHex reads exactly len(want)/2 bytes from c and compares their hex.
func readHex(t *testing.T, c net.Conn, want string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(want)/2)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != want {
		t.Fatalf("wire bytes\n got %s\nwant %s", h, want)
	}
}

// TestGoldenFrameAsSendWritesIt captures the bytes of a worker's Send to the
// master and of the master's Send to a worker on a pipe.
func TestGoldenFrameAsSendWritesIt(t *testing.T) {
	for _, side := range []string{"worker", "master"} {
		a, b := net.Pipe()
		conn := &Conn{Conn: a}
		ep, dst := NewEndpoint(1, 2, []*Conn{conn}), 0
		if side == "master" {
			ep, dst = NewEndpoint(0, 2, []*Conn{nil, conn}), 1
		}
		errc := make(chan error, 1)
		go func() { errc <- ep.Send(dst, 5, goldenData) }()
		readHex(t, b, goldenSend)
		if err := <-errc; err != nil {
			t.Fatalf("%s: %v", side, err)
		}
		a.Close()
		b.Close()
	}
}

// TestGoldenFrameThroughLoopback writes the golden bytes raw on a loopback
// worker's socket: they reach the master's mailbox as the message they
// encode. The master's Send of goldenData reaches the worker bit for bit,
// and both ends count the payload bytes of both directions they took part
// in.
func TestGoldenFrameThroughLoopback(t *testing.T) {
	eps, hangup, err := Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hangup()
	m, w := eps[0], eps[1]
	if _, err := w.conns[0].Write(mustHex(t, goldenRaw)); err != nil {
		t.Fatal(err)
	}
	msg, err := m.Recv(4, mp.AnySource)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != 4 || msg.Source != 1 || len(msg.Data) != 2 || msg.Data[0] != -2.25 || msg.Data[1] != 1 {
		t.Fatalf("master received %+v, want tag 4 from 1 with {-2.25, 1}", msg)
	}

	if err := m.Send(1, 5, goldenData); err != nil {
		t.Fatal(err)
	}
	got, err := w.Recv(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(mp.EncodeFloats(got.Data)) != goldenSend[24:] {
		t.Fatalf("worker received %v, want the golden doubles bit for bit", got.Data)
	}
	if m.BytesMoved() != 16+24 || w.BytesMoved() != 24 {
		t.Fatalf("master counted %d payload bytes, worker %d; want 40 and 24", m.BytesMoved(), w.BytesMoved())
	}
}
