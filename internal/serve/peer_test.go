package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// A peer's answer must not put a product in the cache under a key of the
// other kind, nor an empty or ragged one under any key: either would be
// served as the key's product type, and ComputeCl / ComputePk assert that
// type. The forwarding node refuses such an envelope before caching it.
func TestPeerOfferRejectsMismatchedOrEmptyResult(t *testing.T) {
	s := testService()
	defer s.Close()
	for _, c := range []struct {
		k      *kind
		result string
	}{
		{&s.cl, `{}`},
		{&s.cl, `{"k": [0.1], "t": [1], "p": [2]}`},
		{&s.cl, `{"l": [2, 3], "cl": [1], "band_power_uk": [1, 2]}`},
		{&s.pk, `{}`},
		{&s.pk, `{"l": [2], "cl": [1], "band_power_uk": [1]}`},
		{&s.pk, `{"k": [0.1], "t": [1], "p": [2, 3]}`},
	} {
		key := c.k.name + "-x"
		env := fmt.Sprintf(`{"key": %q, "result": %s}`, key, c.result)
		if _, err := decodePeerEnvelope([]byte(env), key, c.k.decode); err == nil {
			t.Errorf("%s envelope %s was accepted", c.k.name, env)
		}
	}
}

// FuzzPeerEnvelope: no forwarded response panics either product's decode,
// and one is accepted only when it answers the key asked for with a result
// whose arrays are non-empty and of equal length.
func FuzzPeerEnvelope(f *testing.F) {
	s := testService()
	f.Cleanup(s.Close)
	kinds := map[string]*kind{"cl": &s.cl, "pk": &s.pk}
	for _, valid := range [][2]string{
		{"cl", `{"key": "cl-0", "source": "compute", "result": {"l": [2, 3], "cl": [1, 2], "band_power_uk": [3, 4]}}`},
		{"pk", `{"key": "pk-0", "source": "cache", "result": {"k": [0.1], "t": [1], "p": [2], "sigma8": 0.9}}`},
	} {
		name, body := valid[0], valid[1]
		if _, err := decodePeerEnvelope([]byte(body), name+"-0", kinds[name].decode); err != nil {
			f.Fatalf("valid %s envelope refused: %v", name, err)
		}
		f.Add(name, body)
	}
	f.Add("cl", `{"key": "cl-1", "result": {"l": [2], "cl": [1], "band_power_uk": [1]}}`)
	f.Add("pk", `{"key": "pk-0", "result": [0.1, 1, 2]}`)
	f.Add("cl", `{"key": "cl-0", "result": {"l": [2], "cl": [1`)
	f.Fuzz(func(t *testing.T, name, body string) {
		k := kinds[name]
		if k == nil {
			return
		}
		key := name + "-0"
		p, err := decodePeerEnvelope([]byte(body), key, k.decode)
		if err != nil {
			return
		}
		var env peerEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Key != key {
			t.Fatalf("accepted an envelope for another key: %s", body)
		}
		var lens []int // stays empty for a product of the other kind
		switch v := p.v.(type) {
		case *ClResponse:
			if name == "cl" {
				lens = []int{len(v.L), len(v.Cl), len(v.BandPowerUK)}
			}
		case *PkResponse:
			if name == "pk" {
				lens = []int{len(v.K), len(v.T), len(v.P)}
			}
		}
		if len(lens) == 0 || lens[0] == 0 || slices.Min(lens) != slices.Max(lens) {
			t.Fatalf("accepted a %T with array lengths %v", p.v, lens)
		}
	})
}
