package dispatch

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"plinger/internal/core"
	"plinger/internal/mp"
)

// fuzzFloats reads fuzz bytes as little-endian doubles, dropping a ragged
// tail.
func fuzzFloats(b []byte) []float64 {
	y, _ := mp.DecodeFloats(b[:len(b)/8*8])
	return y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzUnpackResult: no pair of blocks panics the decoder, and a pair it
// accepts packs back to identical bits.
func FuzzUnpackResult(f *testing.F) {
	r := fakeResult(0.05, 6)
	f.Add(mp.EncodeFloats(packSummary(3, r)), mp.EncodeFloats(packMoments(3, r)))
	f.Fuzz(func(t *testing.T, sumBytes, momBytes []byte) {
		sum, mom := fuzzFloats(sumBytes), fuzzFloats(momBytes)
		ik, r, err := unpackResult(sum, mom)
		if err != nil {
			return
		}
		if !sameBits(packSummary(ik, r), sum) || !sameBits(packMoments(ik, r), mom) {
			t.Fatalf("accepted blocks do not pack back:\nsum %v\nmom %v", sum, mom)
		}
	})
}

// FuzzUnpackSources: no block panics the decoder, and a block it accepts
// packs back to identical bits.
func FuzzUnpackSources(f *testing.F) {
	r := fakeResult(0.05, 6)
	r.Sources = []core.Sample{{Tau: 1, A: 0.5, Theta0: -0.25, Residual: 1e-9}, {Tau: 2, Kappa: 3}}
	f.Add(4, mp.EncodeFloats(packSources(4, r)))
	f.Fuzz(func(t *testing.T, ik int, yBytes []byte) {
		y := fuzzFloats(yBytes)
		samples, err := unpackSources(ik, y)
		if err != nil {
			return
		}
		if !sameBits(packSources(ik, &core.Result{Sources: samples}), y) {
			t.Fatalf("accepted block for ik=%d does not pack back: %v", ik, y)
		}
	})
}

// verdictScript decodes fuzz bytes into at most 8 messages: each is an
// int8 tag, a little-endian uint16 count of doubles, and that many doubles,
// zero where the bytes run out (a ragged double dropped), so a long block
// of mostly zeros is a short input.
func verdictScript(b []byte) []mp.Message {
	var out []mp.Message
	for len(out) < 8 && len(b) >= 3 {
		tag, n := int(int8(b[0])), int(binary.LittleEndian.Uint16(b[1:3]))
		b = b[3:]
		y := make([]float64, n)
		copy(y, fuzzFloats(b[:min(8*n, len(b))]))
		out = append(out, msg(tag, y))
		b = b[min(8*n, len(b)):]
	}
	return out
}

// encodeScript is verdictScript's inverse for the seeds, whose last
// message never has a zero header: the trailing zeros it trims come back
// as padding.
func encodeScript(msgs []mp.Message) []byte {
	var b []byte
	for _, m := range msgs {
		b = append(b, byte(int8(m.Tag)))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Data)))
		b = append(b, mp.EncodeFloats(m.Data)...)
	}
	return bytes.TrimRight(b, "\x00")
}

// FuzzMasterVerdicts: whatever rank 2 of runVerdict's world sends after its
// first assignment before its death is reported, the master neither panics
// nor stalls, and books every mode. Forged but well-formed results are
// accepted as a worker's numbers always are, so the bits are not checked.
func FuzzMasterVerdicts(f *testing.F) {
	m := model(f)
	ks := testKs()
	for _, row := range verdictRows() {
		mode := verdictMode(row.keep)
		blocks := batchBlocks(len(ks), mode.KBatch)
		ik1 := blocks[blockOrder(ks, blocks)[0]][0] + 1 // rank 2 requests first
		f.Add(row.keep, encodeScript(row.send(ik1, fakeResult(ks[ik1-1], mode.LMax))))
	}
	f.Fuzz(func(t *testing.T, keep bool, script []byte) {
		msgs := verdictScript(script)
		res, err := runVerdict(t, m, ks, verdictMode(keep), func(int) []mp.Message { return msgs }, true)
		if err != nil {
			t.Fatalf("master: %v", err)
		}
		for i, r := range res.sw.Results {
			if r == nil {
				t.Fatalf("mode %d not booked", i)
			}
		}
	})
}
