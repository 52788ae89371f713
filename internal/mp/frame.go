package mp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The one socket frame of the repository, shared by the tcpmp hub and the
// worker farm: three little-endian int32 words — two the caller names (a, b)
// and the payload's length in units of unit bytes — then the payload. tcpmp
// counts its length in doubles (unit 8), the farm in bytes (unit 1).

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
// [0, MaxFrameBytes], or a payload that does not divide into its units.
var ErrMalformedFrame = errors.New("mp: malformed frame")

// WriteFrame writes one frame as two writes, header then payload (also when
// the payload is empty). len(payload) must be a multiple of unit.
func WriteFrame(w io.Writer, a, b int32, payload []byte, unit int) error {
	if len(payload)%unit != 0 || len(payload) > MaxFrameBytes {
		return fmt.Errorf("%w: %d payload bytes in units of %d", ErrMalformedFrame, len(payload), unit)
	}
	if err := binary.Write(w, binary.LittleEndian, []int32{a, b, int32(len(payload) / unit)}); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame with the same unit. A
// header with an impossible length is ErrMalformedFrame; a stream that ends
// inside a frame is io.ErrUnexpectedEOF, and one that ends before it io.EOF.
func ReadFrame(r io.Reader, unit int) (a, b int32, payload []byte, err error) {
	var hdr [3]int32
	if err := binary.Read(r, binary.LittleEndian, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	a, b, n := hdr[0], hdr[1], int(hdr[2])
	if n < 0 || n > MaxFrameBytes/unit {
		return a, b, nil, fmt.Errorf("%w: length %d in units of %d", ErrMalformedFrame, n, unit)
	}
	size := n * unit
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
