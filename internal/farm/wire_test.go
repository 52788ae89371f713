package farm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"plinger/internal/core"
	"plinger/internal/mp"
	"plinger/internal/mp/tcpmp"
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

// TestRegisterRefusesNumericsMismatch: a worker whose build computes other
// bits for the same spec (another core.NumericsVersion) is logged and
// refused at registration, as a protocol version mismatch is.
func TestRegisterRefusesNumericsMismatch(t *testing.T) {
	logs := make(chan string, 8)
	s := testSupervisor(t, Options{Logf: func(format string, args ...any) {
		logs <- fmt.Sprintf(format, args...)
	}})
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := binary.Write(c, binary.LittleEndian, uint32(farmMagic)); err != nil {
		t.Fatal(err)
	}
	h := Hello{Version: protocolVersion, Numerics: core.NumericsVersion + 1, Host: "test", PID: 1, UID: "stale"}
	if err := writeJSON(&tcpmp.Conn{Conn: c}, kindHello, h); err != nil {
		t.Fatal(err)
	}
	// The supervisor closes the connection without a Welcome.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := io.Copy(io.Discard, c); err != nil || n != 0 {
		t.Fatalf("supervisor answered %d bytes (%v) instead of closing", n, err)
	}
	select {
	case msg := <-logs:
		if !strings.Contains(msg, "numerics version") {
			t.Fatalf("refusal logged as %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("refusal not logged")
	}
	if s.Alive() != 0 {
		t.Fatalf("%d workers registered", s.Alive())
	}
}

type noDeadline struct{ net.Conn }

func (noDeadline) SetDeadline(time.Time) error      { return nil }
func (noDeadline) SetWriteDeadline(time.Time) error { return nil }

// FuzzRegister feeds arbitrary bytes to the supervisor as one dialer's whole
// stream, over a pipe, through registration and the registered worker's read
// loop. Whatever they are, nothing panics, the supervisor closes the
// connection once the stream ends, the roster is empty again, and allocation
// stays within FuzzReadFrame's bound.
func FuzzRegister(f *testing.F) {
	frame := func(kind int32, payload []byte) []byte {
		var b bytes.Buffer
		mp.WriteFrame(&b, kind, 0, payload)
		return b.Bytes()
	}
	hello := func(h Hello) []byte {
		p, _ := json.Marshal(h)
		return append(binary.LittleEndian.AppendUint32(nil, farmMagic), frame(kindHello, p)...)
	}
	ok := hello(Hello{Version: protocolVersion, Numerics: core.NumericsVersion, Host: "h", PID: 1, UID: "u"})
	f.Add([]byte{})
	f.Add(hello(Hello{Version: protocolVersion + 1, Numerics: core.NumericsVersion}))
	f.Add(hello(Hello{Version: protocolVersion, Numerics: core.NumericsVersion + 1, Host: "h", PID: 1, UID: "u"}))
	f.Add(ok)
	f.Add(append(ok, frame(kindPong, nil)...))
	f.Add(append(append(ok, frame(kindSweepDone, []byte(`{"ok":false,"err":"x"}`))...), frame(tcpmp.KindData, mp.EncodeFloats([]float64{1}))...))
	f.Add(append(ok, frame(kindDrain, nil)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		s := newSupervisor(Options{})
		srv, cli := net.Pipe()
		// A pipe's deadline timers outlive it and would fire, allocating,
		// into later runs.
		srv = noDeadline{srv}
		buf := make([]byte, 512)
		go func() {
			for {
				if _, err := cli.Read(buf); err != nil {
					return
				}
			}
		}()
		go func() {
			cli.Write(in)
			cli.Close()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.register(srv)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+5*uint64(len(in))+4096 {
			t.Fatalf("%d input bytes cost %d allocated", len(in), n)
		}
		if _, err := srv.Read(buf[:1]); err != io.ErrClosedPipe {
			t.Fatalf("supervisor left the connection open: %v", err)
		}
		if s.Alive() != 0 {
			t.Fatalf("%d workers left on the roster", s.Alive())
		}
	})
}

// TestSweepSpecCarriesEveryParam: every exported field of core.Params but K
// (which the wire assigns per block) crosses a sweep's begin frame. A field
// added to core.Params without a sweepSpec twin would fall back to its
// default on every farm worker and break the bitwise contract silently.
func TestSweepSpecCarriesEveryParam(t *testing.T) {
	var want core.Params
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || f.Name == "K" {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int:
			fv.SetInt(int64(i + 1))
		case reflect.Float64:
			fv.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("core.Params.%s: no test value for kind %s", f.Name, fv.Kind())
		}
	}
	payload, err := json.Marshal(specFromParams(want))
	if err != nil {
		t.Fatal(err)
	}
	var sp sweepSpec
	if err := json.Unmarshal(payload, &sp); err != nil {
		t.Fatal(err)
	}
	if got := sp.params(); !reflect.DeepEqual(got, want) {
		t.Fatalf("core.Params did not survive the wire:\n got  %+v\n want %+v", got, want)
	}
}
