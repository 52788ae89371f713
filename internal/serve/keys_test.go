package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"plinger"
)

// TestGoldenKeys pins the wire-stable cache keys: equal physics must map to
// the same key in every process and across restarts. If this test fails
// because the key format deliberately changed, bump core.NumericsVersion
// (keyVersion follows it) and repin.
func TestGoldenKeys(t *testing.T) {
	d := DefaultDefaults()
	cfg := plinger.SCDM()
	golden := []struct {
		name string
		key  string
		want string
	}{
		{"cl zero request", ClRequest{}.Key(d), "cl-7b28a5a5e6d909d2"},
		{"cl explicit defaults", ClRequest{Config: &cfg, LMaxCl: 150, NK: 130, KRefine: 6}.Key(d), "cl-7b28a5a5e6d909d2"},
		{"cl qcobe", ClRequest{QCOBEMicroK: 18}.Key(d), "cl-387a016fd9f7a6e1"},
		{"pk zero request", PkRequest{}.Key(d), "pk-982b56d139f2fce6"},
		{"pk explicit defaults", PkRequest{Config: &cfg, KMin: 2e-4, KMax: 0.5, NK: 40}.Key(d), "pk-982b56d139f2fce6"},
	}
	for _, g := range golden {
		if g.key != g.want {
			t.Errorf("%s: key %s, want %s", g.name, g.key, g.want)
		}
	}
}

// TestKeyExcludesRoutingMetadata pins the fleet invariant behind the
// sharded cache: DeadlineMS is serving metadata, not physics, and must never
// reach the key. If a forwarded request (deadline stripped) keyed
// differently from the client's original, every forward would recompute and
// cross-node hits could never happen.
func TestKeyExcludesRoutingMetadata(t *testing.T) {
	d := DefaultDefaults()
	golden := []struct {
		name string
		key  string
		want string
	}{
		{"cl with deadline", ClRequest{DeadlineMS: 250}.Key(d), "cl-7b28a5a5e6d909d2"},
		{"pk with deadline", PkRequest{DeadlineMS: 250}.Key(d), "pk-982b56d139f2fce6"},
	}
	for _, g := range golden {
		if g.key != g.want {
			t.Errorf("%s: key %s, want %s", g.name, g.key, g.want)
		}
	}
}

// TestKeyEqualPhysics checks quantization: parameter differences far below
// the pipeline accuracy collapse onto one key.
func TestKeyEqualPhysics(t *testing.T) {
	d := DefaultDefaults()
	base := ClRequest{}.Key(d)

	cfg := plinger.SCDM()
	cfg.H += 1e-9
	cfg.OmegaB += 1e-10
	cfg.TCMB += 1e-8
	if got := (ClRequest{Config: &cfg}).Key(d); got != base {
		t.Errorf("sub-quantum perturbation changed the key: %s vs %s", got, base)
	}

	// Zero-valued and explicitly spelled-out defaults are the same request.
	if got := (ClRequest{LMaxCl: d.LMaxCl, NK: d.NK, KRefine: d.KRefine}).Key(d); got != base {
		t.Errorf("explicit defaults keyed differently: %s vs %s", got, base)
	}

	// A partial config resolves its zero fields to SCDM: spelling out only
	// the (default) Hubble constant is still the default cosmology.
	partial := plinger.Config{H: 0.5}
	if got := (ClRequest{Config: &partial}).Key(d); got != base {
		t.Errorf("partial SCDM config keyed differently: %s vs %s", got, base)
	}
}

// TestKeyDistinctPhysics checks that physically meaningful changes key
// separately — in the cosmology, the product parameters, and the product
// kind.
func TestKeyDistinctPhysics(t *testing.T) {
	d := DefaultDefaults()
	base := ClRequest{}.Key(d)
	seen := map[string]string{base: "base"}
	distinct := func(name string, key string) {
		t.Helper()
		if prev, ok := seen[key]; ok {
			t.Errorf("%s collides with %s: %s", name, prev, key)
		}
		seen[key] = name
	}

	h := plinger.SCDM()
	h.H = 0.51
	distinct("H=0.51", ClRequest{Config: &h}.Key(d))
	ob := plinger.SCDM()
	ob.OmegaB = 0.06
	distinct("OmegaB=0.06", ClRequest{Config: &ob}.Key(d))
	n := plinger.SCDM()
	n.SpectralIndex = 0.95
	distinct("n=0.95", ClRequest{Config: &n}.Key(d))
	mdm := plinger.MDM(7)
	distinct("MDM", ClRequest{Config: &mdm}.Key(d))

	distinct("lmax 60", ClRequest{LMaxCl: 60}.Key(d))
	distinct("nk 99", ClRequest{NK: 99}.Key(d))
	distinct("exact", ClRequest{Exact: true}.Key(d))
	distinct("krefine 3", ClRequest{KRefine: 3}.Key(d))
	distinct("qcobe", ClRequest{QCOBEMicroK: 18}.Key(d))

	distinct("pk", PkRequest{}.Key(d))
	distinct("pk kmax", PkRequest{KMax: 0.3}.Key(d))
	distinct("pk amp", PkRequest{Amp: 2e-9}.Key(d))
}

// TestServedConfigIsTheKeysCosmology: the cosmology a model is built from
// is a function of its key alone, and it keeps the bits of every input
// already on the key's grid — the paper's SCDM and MDM, and the seeded
// bench draws among them.
func TestServedConfigIsTheKeysCosmology(t *testing.T) {
	onGrid := clCfg(0.6123)
	onGrid.OmegaB = 0.04567
	onGrid.OmegaC = 0.95433
	for name, c := range map[string]plinger.Config{
		"SCDM": plinger.SCDM(), "MDM": plinger.MDM(4), "on grid": onGrid,
	} {
		if got := servedConfig(c); got != c {
			t.Errorf("%s: served as %+v, want its own bits %+v", name, got, c)
		}
	}
	for _, c := range []plinger.Config{clCfg(0.55), clCfg(0.55 + 3e-5), clCfg(0.5 - 4e-5)} {
		c.OmegaB += 3e-6
		c.YHe -= 2e-5
		got := servedConfig(c)
		if canonicalConfig(got) != canonicalConfig(c) {
			t.Errorf("%+v: served as %+v, which keys differently", c, got)
		}
		if servedConfig(got) != got {
			t.Errorf("%+v: serving is not idempotent", c)
		}
	}
	if got := servedConfig(clCfg(0.55 + 3e-5)).H; got != 0.55 {
		t.Errorf("H 0.55 + 3e-5 served as %.17g, want the grid point 0.55", got)
	}
	if got := servedConfig(clCfg(0.5 - 4e-5)).H; got != 0.5 {
		t.Errorf("H 0.5 - 4e-5 served as %.17g, want SCDM's 0.5", got)
	}
}

// TestInQuantumConfigsServeOneProduct: two configs inside one quantum, sent
// in both orders to fresh services, get byte-identical answers — the
// model is built from the key, not from whichever config came first.
func TestInQuantumConfigsServeOneProduct(t *testing.T) {
	a, b := clCfg(0.55+2e-5), clCfg(0.55-3e-5)
	var bodies [2][]byte
	for i, order := range [2][2]plinger.Config{{a, b}, {b, a}} {
		s := testService()
		for _, c := range order {
			if _, _, err := s.ComputeCl(context.Background(), ClRequest{Config: &c}); err != nil {
				t.Fatal(err)
			}
		}
		if s.Sweeps() != 1 {
			t.Fatalf("one key swept %d times", s.Sweeps())
		}
		bodies[i] = productBody(t, s, ClRequest{Config: &a})
		s.Close()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the product of one key depends on which of its configs arrived first")
	}
}

// TestKeyIndependentOfDefaultsWhenExplicit ensures a fully spelled-out
// request keys identically under different service defaults (only
// zero-valued fields depend on them).
func TestKeyIndependentOfDefaultsWhenExplicit(t *testing.T) {
	cfg := plinger.SCDM()
	r := ClRequest{Config: &cfg, LMaxCl: 80, NK: 90, KRefine: 2}
	d1 := DefaultDefaults()
	d2 := Defaults{LMaxCl: 40, NK: 50, KRefine: 9, PkNK: 10}
	if r.Key(d1) != r.Key(d2) {
		t.Error("explicit request key depends on service defaults")
	}
	if (ClRequest{}).Key(d1) == (ClRequest{}).Key(d2) {
		t.Error("zero request should follow the service defaults")
	}
}

// hugeInt is 2^62 on 64-bit hosts: a grid size whose make() panics.
var hugeInt = strconv.Itoa(math.MaxInt/2 + 1)

// checkWireBounds decodes each body as an R and requires Validate to refuse
// it with an error naming field, or to accept it when field is "".
func checkWireBounds[R interface{ Validate() error }](t *testing.T, rows [][2]string) {
	t.Helper()
	for _, row := range rows {
		body, field := row[0], row[1]
		var r R
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		err := r.Validate()
		switch {
		case field == "" && err != nil:
			t.Errorf("%s refused: %v", body, err)
		case field != "" && err == nil:
			t.Errorf("%s validated, want a refusal naming %s", body, field)
		case field != "" && !strings.Contains(err.Error(), " "+field+" = "):
			t.Errorf("%s: error %q does not name %s", body, err, field)
		}
	}
}

// TestClWireBounds: /v1/cl refuses a grid above its ceiling and a quantized
// value past the key's exact range, naming the field, and admits the
// paper's converged request.
func TestClWireBounds(t *testing.T) {
	q := maxQuanta * stepQCOBE
	checkWireBounds[ClRequest](t, [][2]string{
		{`{"lmax_cl": 3000, "nk": 3200}`, ""},
		{fmt.Sprintf(`{"lmax_cl": %d, "nk": %d}`, maxWireLMaxCl, maxWireNK), ""},
		{fmt.Sprintf(`{"qcobe_uk": %g}`, q), ""},
		{`{"config": {"H": 0.55, "OmegaC": 0.95}, "qcobe_uk": 18}`, ""},
		{`{"nk": ` + hugeInt + `, "deadline_ms": 1000}`, "nk"},
		{`{"lmax_cl": ` + hugeInt + `}`, "lmax_cl"},
		{fmt.Sprintf(`{"nk": %d}`, maxWireNK+1), "nk"},
		{fmt.Sprintf(`{"lmax_cl": %d}`, maxWireLMaxCl+1), "lmax_cl"},
		{`{"qcobe_uk": 1e25}`, "qcobe_uk"},
		{fmt.Sprintf(`{"qcobe_uk": %g}`, 1.001*q), "qcobe_uk"},
		{`{"config": {"H": 1e20}}`, "config.H"},
		{`{"config": {"OmegaC": -1e12}}`, "config.OmegaC"},
		{`{"config": {"SpectralIndex": 1e300}}`, "config.SpectralIndex"},
	})
}

// TestPkWireBounds is TestClWireBounds for /v1/pk.
func TestPkWireBounds(t *testing.T) {
	checkWireBounds[PkRequest](t, [][2]string{
		{`{"nk": 3200, "kmin": 1e-5, "kmax": 10}`, ""},
		{fmt.Sprintf(`{"nk": %d}`, maxWireNK), ""},
		{`{"nk": ` + hugeInt + `}`, "nk"},
		{fmt.Sprintf(`{"nk": %d}`, maxWireNK+1), "nk"},
		{`{"config": {"H": 1e20}}`, "config.H"},
		{`{"config": {"YHe": 1e12}}`, "config.YHe"},
	})
}

// FuzzRequestKey runs request JSON through the handlers' path — decode,
// Validate, Key — and requires the key to survive re-encoding: the decoded
// request encoded and decoded again, and the resolved request a forward
// sends its owner, both key as the original. A key that moved would make
// every forward recompute instead of hitting.
func FuzzRequestKey(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"config": {"H": 0.55, "Flatten": true}, "lmax_cl": 40, "nk": 40, "qcobe_uk": 18}`)
	f.Add(`{"exact": true, "krefine": 3, "deadline_ms": 5}`)
	f.Add(`{"kmin": 1e-4, "kmax": 2, "nk": 12, "amp": 2e-9}`)
	f.Add(`{"config": {"OmegaC": 1e308, "NNuMassive": -3}, "kmin": 5e-324}`)
	f.Add(`{"qcobe_uk": 1e25}`)
	f.Add(`{"nk": 4611686018427387904}`)
	f.Add(`{"config": {"H": 1e20}}`)
	d := DefaultDefaults()
	f.Fuzz(func(t *testing.T, body string) {
		fuzzKey[ClRequest](t, body, func(r ClRequest) (string, any, error) {
			return r.Key(d), r.resolve(d), r.Validate()
		})
		fuzzKey[PkRequest](t, body, func(r PkRequest) (string, any, error) {
			return r.Key(d), r.resolve(d), r.Validate()
		})
	})
}

// fuzzKey checks one request type: see FuzzRequestKey.
func fuzzKey[R any](t *testing.T, body string, check func(R) (string, any, error)) {
	t.Helper()
	var r R
	if json.Unmarshal([]byte(body), &r) != nil {
		return
	}
	key, resolved, err := check(r)
	if err != nil {
		return
	}
	for _, v := range []any{r, resolved} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", v, err)
		}
		var again R
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
		if k, _, _ := check(again); k != key {
			t.Fatalf("key %s became %s after re-encoding as %s", key, k, b)
		}
	}
}
