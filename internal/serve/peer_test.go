package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// postOffer drives the back-fill handler directly and returns the status.
func postOffer(h http.Handler, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/peer/offer", strings.NewReader(body)))
	return rec.Code
}

// An offer must not put a product in the cache under a key of the other
// kind, nor an empty or ragged one under any key: either would be served
// as the key's product type, and ComputeCl / ComputePk assert that type.
func TestPeerOfferRejectsMismatchedOrEmptyResult(t *testing.T) {
	s := testService()
	defer s.Close()
	h := s.Handler()
	d := testDefaults()
	clKey, pkKey := ClRequest{}.Key(d), PkRequest{}.Key(d)
	for _, body := range []string{
		fmt.Sprintf(`{"key": %q, "kind": "cl", "result": {}}`, pkKey),
		fmt.Sprintf(`{"key": %q, "kind": "pk", "result": {"k": [0.1], "t": [1], "p": [2]}}`, clKey),
		fmt.Sprintf(`{"key": %q, "kind": "cl", "result": {}}`, clKey),
		fmt.Sprintf(`{"key": %q, "kind": "cl", "result": {"l": [2, 3], "cl": [1], "band_power_uk": [1, 2]}}`, clKey),
		fmt.Sprintf(`{"key": %q, "kind": "pk", "result": {"k": [0.1], "t": [1], "p": [2, 3]}}`, pkKey),
		`{"key": "", "kind": "cl", "result": {"l": [2], "cl": [1], "band_power_uk": [1]}}`,
	} {
		if code := postOffer(h, body); code != http.StatusBadRequest {
			t.Errorf("offer %s: status %d, want 400", body, code)
		}
	}
	for _, key := range []string{clKey, pkKey} {
		if _, ok := s.cache.Get(key); ok {
			t.Fatalf("a refused offer left %s in the cache", key)
		}
	}
	// A peer's answer goes through the same decoders.
	if _, err := decodePeerEnvelope([]byte(`{"key": "cl-x", "result": {}}`), "cl-x", s.cl.decode); err == nil {
		t.Fatal("an empty C_l result in a peer envelope was accepted")
	}

	// A well-formed offer of the key's own kind is still back-filled and
	// served as a hit.
	want := &ClResponse{L: []int{2, 3}, Cl: []float64{1, 2}, BandPowerUK: []float64{3, 4}}
	result, _ := json.Marshal(want)
	if code := postOffer(h, fmt.Sprintf(`{"key": %q, "kind": "cl", "result": %s}`, clKey, result)); code != http.StatusOK {
		t.Fatalf("well-formed offer: status %d", code)
	}
	got, meta, err := s.ComputeCl(context.Background(), ClRequest{})
	if err != nil || meta.Source != SourceCache || !reflect.DeepEqual(got, want) {
		t.Fatalf("back-filled hit: %+v %+v %v", got, meta, err)
	}
}

// FuzzPeerOffer: no offer body panics the handler, and every accepted offer
// leaves a product whose type is the one its key names, which ComputeCl /
// ComputePk then serve without panicking.
func FuzzPeerOffer(f *testing.F) {
	d := testDefaults()
	clKey, pkKey := ClRequest{}.Key(d), PkRequest{}.Key(d)
	f.Add(fmt.Sprintf(`{"key": %q, "kind": "cl", "result": {}}`, pkKey))
	f.Add(fmt.Sprintf(`{"key": %q, "kind": "pk", "result": {"k": [0.1], "t": [1], "p": [2]}}`, clKey))
	f.Add(fmt.Sprintf(`{"key": %q, "kind": "cl", "result": {"l": [2], "cl": [1], "band_power_uk": [1]}}`, clKey))
	f.Add(fmt.Sprintf(`{"key": %q, "kind": "pk", "result": {"k": [0.1], "t": [1], "p": [2], "sigma8": 1}}`, pkKey))
	f.Add(`{"key": "cl-0", "kind": "cl", "result": {"l": [2, 3], "cl": [1], "band_power_uk": [1, 2]}}`)
	f.Add(`{"kind": "xx"}`)
	s := testService()
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		if postOffer(h, body) != http.StatusOK {
			return
		}
		var off peerOffer
		if err := json.Unmarshal([]byte(body), &off); err != nil {
			t.Fatalf("accepted an offer that does not parse: %v", err)
		}
		p, ok := s.cache.Get(off.Key)
		if !ok {
			t.Fatalf("accepted offer %q not cached", off.Key)
		}
		switch p.v.(type) {
		case *ClResponse:
			ok = strings.HasPrefix(off.Key, "cl-")
		case *PkResponse:
			ok = strings.HasPrefix(off.Key, "pk-")
		default:
			ok = false
		}
		if !ok {
			t.Fatalf("offer cached a %T under %q", p.v, off.Key)
		}
		ctx := context.Background()
		switch off.Key {
		case clKey:
			if _, _, err := s.ComputeCl(ctx, ClRequest{}); err != nil {
				t.Fatal(err)
			}
		case pkKey:
			if _, _, err := s.ComputePk(ctx, PkRequest{}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzPeerEnvelope: no forwarded response panics either product's decode,
// and one is accepted only when it answers the key asked for with a result
// whose arrays are non-empty and of equal length.
func FuzzPeerEnvelope(f *testing.F) {
	s := testService()
	f.Cleanup(s.Close)
	for _, valid := range [][2]string{
		{"cl", `{"key": "cl-0", "source": "compute", "result": {"l": [2, 3], "cl": [1, 2], "band_power_uk": [3, 4]}}`},
		{"pk", `{"key": "pk-0", "source": "cache", "result": {"k": [0.1], "t": [1], "p": [2], "sigma8": 0.9}}`},
	} {
		name, body := valid[0], valid[1]
		if _, err := decodePeerEnvelope([]byte(body), name+"-0", s.kinds[name].decode); err != nil {
			f.Fatalf("valid %s envelope refused: %v", name, err)
		}
		f.Add(name, body)
	}
	f.Add("cl", `{"key": "cl-1", "result": {"l": [2], "cl": [1], "band_power_uk": [1]}}`)
	f.Add("pk", `{"key": "pk-0", "result": [0.1, 1, 2]}`)
	f.Add("cl", `{"key": "cl-0", "result": {"l": [2], "cl": [1`)
	f.Fuzz(func(t *testing.T, name, body string) {
		k := s.kinds[name]
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
