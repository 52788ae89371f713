package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// header is a bare frame header: the two caller words and a length word.
func header(a, b, n int32) []byte {
	var h [12]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(a))
	binary.LittleEndian.PutUint32(h[4:], uint32(b))
	binary.LittleEndian.PutUint32(h[8:], uint32(n))
	return h[:]
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameHeaderAloneCostsOnlyTrust: a header claiming the largest legal
// frame, then the end of the stream, allocates no more than the trust size
// and reads as a truncated frame. Readers used to allocate the claimed 128 MiB
// before the first payload byte.
func TestReadFrameHeaderAloneCostsOnlyTrust(t *testing.T) {
	var err error
	n := allocated(func() {
		_, _, _, err = ReadFrame(bytes.NewReader(header(1, 2, MaxFrameBytes)))
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err %v, want io.ErrUnexpectedEOF", err)
	}
	if n >= 2<<20 {
		t.Errorf("a bare header cost %d bytes", n)
	}
}

func TestReadFrameRejectsImpossibleLengths(t *testing.T) {
	for _, n := range []int32{-1, -7, MaxFrameBytes + 1} {
		if _, _, _, err := ReadFrame(bytes.NewReader(header(0, 0, n))); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("length %d: err %v, want ErrMalformedFrame", n, err)
		}
	}
	if err := WriteFrame(io.Discard, 0, 0, make([]byte, MaxFrameBytes+1)); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("%d bytes written: %v", MaxFrameBytes+1, err)
	}
	if _, err := DecodeFloats(make([]byte, 12)); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("12 bytes decoded as doubles: %v", err)
	}
}

// TestFrameLargerThanTrustRoundTrips reads a frame three times the trust size
// through the growing buffer.
func TestFrameLargerThanTrustRoundTrips(t *testing.T) {
	data := make([]float64, 3*frameTrustBytes/8+5)
	for i := range data {
		data[i] = float64(i) - 0.5
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, -4, EncodeFloats(data)); err != nil {
		t.Fatal(err)
	}
	a, b, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFloats(payload)
	if err != nil {
		t.Fatal(err)
	}
	if a != 3 || b != -4 || len(got) != len(data) || got[len(got)-1] != data[len(data)-1] || got[12345] != data[12345] {
		t.Fatalf("frame came back as (%d, %d) with %d doubles", a, b, len(got))
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

// A frame is two writes, header then payload, even when the payload is empty:
// connection wrappers that count writes see the same sequence as ever.
func TestWriteFrameIsTwoWrites(t *testing.T) {
	for _, payload := range [][]byte{nil, {1, 2, 3}} {
		var w countingWriter
		if err := WriteFrame(&w, 0, 0, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != 2 {
			t.Fatalf("%d-byte payload: %d writes, want 2", len(payload), w.writes)
		}
	}
}

// FuzzReadFrame: no input panics the reader, none makes it allocate more than
// the trust size plus five times the bytes supplied, and a frame it accepts
// writes back as exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	f.Add(append(header(7, 5, 16), EncodeFloats([]float64{1.5, -2})...))
	f.Add(append(header(1, 0, 3), `{"a"`...))
	f.Add(header(0, 0, 0))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		var a, b int32
		var payload []byte
		var err error
		read := func() { r.Reset(in); a, b, payload, err = ReadFrame(r) }
		// TotalAlloc is process-wide and the fuzzing engine allocates beside
		// the read, while ReadFrame's own cost is the same every time: an
		// excess counts only when three reads in a row show it.
		bound := frameTrustBytes + 5*uint64(len(in)) + 4096
		n := allocated(read)
		for try := 1; try < 3 && n > bound; try++ {
			n = min(n, allocated(read))
		}
		if n > bound {
			t.Fatalf("%d input bytes cost %d allocated", len(in), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, a, b, payload); err != nil {
			t.Fatalf("accepted frame does not write back: %v", err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("frame re-encodes as %x, read from %x", out.Bytes(), consumed)
		}
	})
}
