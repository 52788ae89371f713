package farm

// Golden frames: the exact bytes a farm connection carries, pinned as hex. A
// frame is three little-endian int32 words — kind, tag, payload length in
// bytes — then the payload: little-endian doubles on a data frame, JSON on a
// control frame.

import (
	"encoding/hex"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"plinger/internal/mp"
	"plinger/internal/mp/tcpmp"
)

// pipeHex runs write against one end of a pipe and returns the hex of the
// first n bytes read from the other.
func pipeHex(t *testing.T, n int, write func(c net.Conn) error) string {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- write(a) }()
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, n)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(buf)
}

// TestGoldenFarmDataFrame sends a summary through the endpoint a farm worker
// builds for a sweep over its connection to the supervisor.
func TestGoldenFarmDataFrame(t *testing.T) {
	const want = "07000000" + "04000000" + "18000000" +
		"000000000000f83f" + "0000000000000080" + "010000000000f87f"
	data := []float64{1.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001)}
	got := pipeHex(t, len(want)/2, func(c net.Conn) error {
		ep := tcpmp.NewEndpoint(1, 2, []*tcpmp.Conn{{Conn: c}})
		return ep.Send(0, mp.TagSummary, data)
	})
	if got != want {
		t.Fatalf("data frame\n got %s\nwant %s", got, want)
	}
}

func TestGoldenFarmControlFrame(t *testing.T) {
	// {"id":3,"heartbeat_ms":1000}
	const want = "02000000" + "00000000" + "1c000000" +
		"7b226964223a332c22686561727462656174" + "5f6d73223a313030307d"
	got := pipeHex(t, len(want)/2, func(c net.Conn) error {
		return writeJSON(&tcpmp.Conn{Conn: c}, kindWelcome, Welcome{ID: 3, HeartbeatMS: 1000})
	})
	if got != want {
		t.Fatalf("control frame\n got %s\nwant %s", got, want)
	}
}
