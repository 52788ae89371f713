package farm

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestUnauthenticatedHeaderCostsNoPayload: a dial that sends the magic word
// and one frame header claiming the largest frame, then ends its stream, is
// dropped for the cost of the read buffer's trust size. Registration used to
// allocate the claimed 128 MiB before any Hello was parsed, so a few such
// dials held half a gigabyte of the supervisor's heap.
func TestUnauthenticatedHeaderCostsNoPayload(t *testing.T) {
	s := testSupervisor(t, Options{})
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hdr := [4]uint32{farmMagic, uint32(kindHello), 0, 128 << 20}
	if err := binary.Write(c, binary.LittleEndian, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The supervisor closes its side once the payload read meets the end.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("supervisor did not drop the connection: %v", err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
		t.Fatalf("one bare header cost the supervisor %d bytes", n)
	}
	if s.Alive() != 0 {
		t.Fatalf("%d workers registered", s.Alive())
	}
}
