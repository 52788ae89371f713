package tcpmp

// Golden frames: the exact bytes tcpmp puts on the wire, pinned as hex so a
// change to how frames are built cannot move them unnoticed. A data frame is
// three little-endian int32 words — KindData, the tag, the payload's length
// in bytes — then the little-endian doubles. The master and a worker write it
// alike, in a tcp world and in a farm, which sends through the same
// endpoints.

import (
	"encoding/binary"
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
	// goldenJoin is the master's answer to a join: rank 1 of 2.
	goldenJoin = "01000000" + "02000000"
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

// TestGoldenJoinThroughListener joins a raw socket to a real listener as rank
// 1: it is answered with its rank and the world size, the master's frame to it
// arrives as the golden bytes, and the frame it writes reaches the master's
// mailbox as the message it encodes, counted in both directions.
func TestGoldenJoinThroughListener(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := binary.Write(raw, binary.LittleEndian, uint32(magic)); err != nil {
		t.Fatal(err)
	}
	readHex(t, raw, goldenJoin)
	m := l.Accept()
	if err := m.Send(1, 5, goldenData); err != nil {
		t.Fatal(err)
	}
	readHex(t, raw, goldenSend)

	if _, err := raw.Write(mustHex(t, goldenRaw)); err != nil {
		t.Fatal(err)
	}
	msg, err := m.Recv(4, mp.AnySource)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != 4 || msg.Source != 1 || len(msg.Data) != 2 || msg.Data[0] != -2.25 || msg.Data[1] != 1 {
		t.Fatalf("master received %+v, want tag 4 from 1 with {-2.25, 1}", msg)
	}
	if m.BytesMoved() != 24+16 {
		t.Fatalf("master counted %d payload bytes, want 40", m.BytesMoved())
	}
}
