package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDropsStalledHeader: a connection that stops mid-header is
// closed by the server once the header bound passes, and a complete
// request to the same server is still answered.
func TestServerDropsStalledHeader(t *testing.T) {
	oldHeader, oldRead := readHeaderTimeout, readTimeout
	readHeaderTimeout, readTimeout = 100*time.Millisecond, 500*time.Millisecond
	t.Cleanup(func() { readHeaderTimeout, readTimeout = oldHeader, oldRead })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	go srv.Serve(ln)
	defer srv.Close()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET / HTTP/1.1\r\nHost: plingerd\r\nX-Half"); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection, answering at most a 408; a read
	// that outlives this deadline means the stalled client still holds it.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection still open: %v", err)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: plingerd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d, want 200", resp.StatusCode)
	}
}
