package tcpmp

// Golden frames: the exact bytes tcpmp puts on the wire, pinned as hex so a
// change to how frames are built cannot move them unnoticed. A frame is three
// little-endian int32 words — (dst, tag, n) from a process to the hub,
// (src, tag, n) from the hub to a process — then n little-endian doubles.

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
	// goldenSend is Send(0, 5, goldenData) as the endpoint writes it.
	goldenSend = "00000000" + "05000000" + "03000000" +
		"000000000000f83f" + "0000000000000080" + "010000000000f87f"
	// goldenForward is the same frame as the hub forwards it from rank 1.
	goldenForward = "01000000" + "05000000" + "03000000" +
		"000000000000f83f" + "0000000000000080" + "010000000000f87f"
	// goldenRaw is a frame a raw process sends to rank 1: tag 4, {-2.25, 1}.
	goldenRaw = "01000000" + "04000000" + "02000000" +
		"00000000000002c0" + "000000000000f03f"
	// goldenHandshake is the hub's rank handshake to rank 0 of 2.
	goldenHandshake = "00000000" + "02000000"
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

// TestGoldenFrameAsSendWritesIt captures Send's bytes on a raw socket playing
// the hub.
func TestGoldenFrameAsSendWritesIt(t *testing.T) {
	got := make(chan string, 1)
	addr := fakeHub(t, func(c net.Conn) {
		buf := make([]byte, len(goldenSend)/2)
		if _, err := io.ReadFull(c, buf); err != nil {
			got <- err.Error()
			return
		}
		got <- hex.EncodeToString(buf)
	})
	ep, err := ConnectTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Send(0, 5, goldenData); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-got:
		if h != goldenSend {
			t.Fatalf("Send wrote\n %s\nwant %s", h, goldenSend)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frame arrived")
	}
}

// TestGoldenFramesThroughHub joins a raw socket to a real hub as rank 0 beside
// one endpoint: the frame the endpoint sends arrives as the hub forwards it,
// and a frame the raw socket writes arrives at the endpoint as the message it
// encodes.
func TestGoldenFramesThroughHub(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	raw, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := binary.Write(raw, binary.LittleEndian, uint32(magic)); err != nil {
		t.Fatal(err)
	}
	ep, err := ConnectTimeout(hub.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	readHex(t, raw, goldenHandshake)
	if ep.Rank() != 1 {
		t.Fatalf("endpoint rank %d, want 1", ep.Rank())
	}

	if err := ep.Send(0, 5, goldenData); err != nil {
		t.Fatal(err)
	}
	readHex(t, raw, goldenForward)

	if _, err := raw.Write(mustHex(t, goldenRaw)); err != nil {
		t.Fatal(err)
	}
	m, err := ep.Recv(4, mp.AnySource)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tag != 4 || m.Source != 0 || len(m.Data) != 2 || m.Data[0] != -2.25 || m.Data[1] != 1 {
		t.Fatalf("endpoint received %+v, want tag 4 from 0 with {-2.25, 1}", m)
	}
	if hub.BytesMoved() != 24+16 {
		t.Fatalf("hub counted %d payload bytes, want 40", hub.BytesMoved())
	}
}
