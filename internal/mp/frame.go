package mp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The one socket frame of the repository: three little-endian int32 words —
// two the caller names (a, b) and the payload's length in bytes — then the
// payload. tcpmp writes every Appendix-A message as one (a = tcpmp.KindData,
// b = the tag, the payload its doubles), for a tcp world and a farm alike;
// the farm's control frames use other kinds and carry JSON.

// The Appendix-A message tags a data frame carries. Tags 1-6 are exactly
// those tabulated in the paper; 7 and 8 are this port's extensions:
// line-of-sight source samples, so a CMBFAST-style spectrum can be assembled
// at the master, and death reports. internal/dispatch speaks the protocol.
const (
	// TagInit is the first message from master to workers.
	TagInit = 1
	// TagRequest is sent by a worker asking for a wavenumber.
	TagRequest = 2
	// TagAssign carries a wavenumber index from master to worker.
	TagAssign = 3
	// TagSummary carries the worker's first data block (21 doubles + lmax).
	TagSummary = 4
	// TagMoments carries the worker's second block (8 + 2(lmax+1) doubles).
	TagMoments = 5
	// TagStop tells a worker to exit.
	TagStop = 6
	// TagSources carries the recorded line-of-sight source samples; it is
	// only sent when the run requests KeepSources.
	TagSources = 7
	// TagDown is the fault-tolerant master's death report, reserved for the
	// master's own endpoint: whoever learns out of band that a worker died
	// (its goroutine returned an error, its connection dropped) sends the
	// rank to the master's rank on the master's endpoint, so the report
	// wakes the master's probe like any message. From any other source it
	// is an unexpected tag.
	TagDown = 8
)

// MaxFrameBytes bounds one frame's payload (16 Mi doubles, 128 MiB); a
// header claiming more is malformed, not an allocation.
const MaxFrameBytes = 128 << 20

// frameTrustBytes is how much of a header's claimed length ReadFrame
// allocates before any payload has arrived; a longer payload at least doubles
// the buffer each time it fills, so a header alone costs at most this much
// and a frame at most this plus five times the bytes that actually arrived.
// Every sweep frame is below it (a paper-scale sources block is ~224 KB).
const frameTrustBytes = 1 << 20

// ErrMalformedFrame marks a frame no correct peer writes: a length outside
// [0, MaxFrameBytes], or a float payload that is not whole doubles.
var ErrMalformedFrame = errors.New("mp: malformed frame")

// WriteFrame writes one frame as two writes, header then payload (also when
// the payload is empty).
func WriteFrame(w io.Writer, a, b int32, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("%w: %d payload bytes", ErrMalformedFrame, len(payload))
	}
	if err := binary.Write(w, binary.LittleEndian, []int32{a, b, int32(len(payload))}); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame. A header with an
// impossible length is ErrMalformedFrame; a stream that ends inside a frame is
// io.ErrUnexpectedEOF, and one that ends before it io.EOF.
func ReadFrame(r io.Reader) (a, b int32, payload []byte, err error) {
	var hdr [3]int32
	if err := binary.Read(r, binary.LittleEndian, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	a, b, size := hdr[0], hdr[1], int(hdr[2])
	if size < 0 || size > MaxFrameBytes {
		return a, b, nil, fmt.Errorf("%w: length %d", ErrMalformedFrame, size)
	}
	payload = make([]byte, min(size, frameTrustBytes))
	for have := 0; ; {
		got, err := io.ReadFull(r, payload[have:])
		have += got
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return a, b, nil, err
		}
		if have == size {
			return a, b, payload, nil
		}
		payload = append(payload, make([]byte, min(size-have, have))...)
	}
}

// EncodeFloats lays data out as little-endian doubles, bit for bit (NaN
// payloads and signed zeros included).
func EncodeFloats(data []float64) []byte {
	buf := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// DecodeFloats is the inverse of EncodeFloats.
func DecodeFloats(payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("%w: %d payload bytes are not a float64 array", ErrMalformedFrame, len(payload))
	}
	data := make([]float64, len(payload)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return data, nil
}
