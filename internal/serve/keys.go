// Package serve is the serving subsystem: a long-running spectrum service
// that amortizes everything the one-shot pipeline rebuilds per call — the
// background/thermodynamics model, the dispatch worker pool, the warm
// spherical-Bessel kernel tables, and the computed spectra themselves —
// across many requests. The paper made one C_l computation fast; this layer
// makes the millionth request nearly free.
//
// The pieces:
//
//   - keys.go — canonical parameter quantization: physically equal requests
//     map to one stable cache key, across processes and restarts;
//   - cache.go — the one LRU over computed responses (a key's product
//     never goes out of date, so it leaves only by eviction), each entry
//     with the digest of one request body already served as its key, so a
//     repeated body is a hit found by its bytes alone;
//   - coalesce.go — singleflight request coalescing, so N concurrent
//     identical cold requests cost one sweep;
//   - queue.go — bounded admission, so overload degrades to fast 503s
//     instead of an unbounded pile-up of sweeps;
//   - models.go — a coalescing LRU registry of built models, all attached
//     to the service's one executor (its shared pool, or the farm);
//   - service.go / handlers.go — the one compute path of both products and
//     the HTTP JSON API (/v1/cl, /v1/pk, /v1/stats) that cmd/plingerd
//     exposes; a COBE-normalized C_l is derived from its unnormalized
//     product there, never swept;
//   - peer.go — the sharded-fleet routing over internal/cluster: cache
//     misses whose key another replica owns are fetched over the peer
//     protocol (/v1/peer/cl, /v1/peer/pk), and every peer failure degrades
//     to a local compute cached on this node;
//   - warmup.go — startup precomputation so the hot path begins warm.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"plinger"
	"plinger/internal/core"
)

// keyVersion opens every key's canonical form. It is core.NumericsVersion,
// so the one rule is: anything that changes what a key names — the bits a
// model computes, a quantization step below, the canonical layout — bumps
// that one number.
var keyVersion = "v" + strconv.Itoa(core.NumericsVersion)

// Physical quantization steps: two requests whose parameters agree to
// better than these are the same physics at far below the pipeline's own
// accuracy (the fast path tracks the reference to ~1e-3 in C_l), so they
// share a cache entry. The steps are part of the wire-stable key format —
// changing any of them is a cache-schema change and must bump
// core.NumericsVersion (see keyVersion).
const (
	stepH     = 1e-4 // Hubble constant, units of 100 km/s/Mpc
	stepOmega = 1e-5 // density parameters
	stepTCMB  = 1e-4 // kelvin
	stepYHe   = 1e-4 // helium mass fraction
	stepNNu   = 1e-3 // massless neutrino count
	stepMNu   = 1e-4 // eV
	stepIndex = 1e-4 // spectral index
	stepQCOBE = 1e-3 // COBE quadrupole, microkelvin
	stepLnK   = 1e-4 // ln of wavenumbers and amplitudes
)

// qfix quantizes x onto multiples of step, returning the integer count —
// the canonical representation, immune to float formatting differences.
// It is exact for |x/step| <= maxQuanta, which the wire Validates enforce.
func qfix(x, step float64) int64 {
	return int64(math.Round(x / step))
}

// maxQuanta bounds |x/step| of every quantized wire value: up to 2^53 the
// quotient rounds to the exact count qfix keys on, while past 2^63 its
// int64 conversion saturates and every larger value would share one key.
const maxQuanta = 1 << 53

// Grid ceilings of the wire. A sweep allocates its grids up front, so
// without them one POST of nk 2^62 panics in make() on the flight's
// goroutine and kills the daemon, and nk 1e9 holds a compute slot for
// hours. They admit the paper's converged request (lmax_cl 3000, nk 3200)
// with headroom.
const maxWireLMaxCl, maxWireNK = 5000, 10000

// quantum is one quantized cosmology field and its key step.
type quantum struct {
	name string
	v    *float64
	step float64
}

// quanta are c's quantized cosmology fields.
func quanta(c *plinger.Config) [9]quantum {
	return [9]quantum{{"H", &c.H, stepH}, {"OmegaC", &c.OmegaC, stepOmega},
		{"OmegaB", &c.OmegaB, stepOmega}, {"OmegaLambda", &c.OmegaLambda, stepOmega},
		{"TCMB", &c.TCMB, stepTCMB}, {"YHe", &c.YHe, stepYHe}, {"NNuMassless", &c.NNuMassless, stepNNu},
		{"MNuEV", &c.MNuEV, stepMNu}, {"SpectralIndex", &c.SpectralIndex, stepIndex}}
}

// checkConfig refuses a config field (nil: none) past maxQuanta.
func checkConfig(c *plinger.Config) error {
	if c != nil {
		for _, q := range quanta(c) {
			if math.Abs(*q.v/q.step) > maxQuanta {
				return fmt.Errorf("serve: config.%s = %g is outside the cache key's range ±%g", q.name, *q.v, maxQuanta*q.step)
			}
		}
	}
	return nil
}

// qln canonicalizes a positive scale-free quantity (wavenumber, amplitude)
// by quantizing its natural log; zero stays zero (the "use the default"
// marker).
func qln(x float64) int64 {
	if x == 0 {
		return 0
	}
	return qfix(math.Log(x), stepLnK)
}

// servedConfig is the cosmology a key names, the one its model is built
// from, so that a key's bits do not depend on which of its configs arrived
// first. Each quantized field goes to its quantum's grid point, which an
// on-grid input already is, except in the quantum of the SCDM value: that
// one keeps the SCDM value (SCDM's OmegaC, which closes the model, is on
// no grid point).
func servedConfig(c plinger.Config) plinger.Config {
	d := plinger.SCDM()
	def := quanta(&d)
	for i, q := range quanta(&c) {
		*q.v = dequantize(*q.v, *def[i].v, q.step)
	}
	return c
}

// dequantize is the representative of x's quantum (see servedConfig): def
// when x shares def's quantum, else the grid point, divided by the integer
// 1/step so that an on-grid decimal keeps its bits.
func dequantize(x, def, step float64) float64 {
	q := qfix(x, step)
	if q == qfix(def, step) {
		return def
	}
	return float64(q) / math.Round(1/step)
}

// canonicalConfig renders the quantized cosmology, one field per token.
func canonicalConfig(c plinger.Config) string {
	flat := 0
	if c.Flatten {
		flat = 1
	}
	return fmt.Sprintf("h=%d,oc=%d,ob=%d,ol=%d,t=%d,y=%d,nnl=%d,nnm=%d,mnu=%d,n=%d,flat=%d",
		qfix(c.H, stepH),
		qfix(c.OmegaC, stepOmega),
		qfix(c.OmegaB, stepOmega),
		qfix(c.OmegaLambda, stepOmega),
		qfix(c.TCMB, stepTCMB),
		qfix(c.YHe, stepYHe),
		qfix(c.NNuMassless, stepNNu),
		int64(c.NNuMassive),
		qfix(c.MNuEV, stepMNu),
		qfix(c.SpectralIndex, stepIndex),
		flat)
}

// hashKey turns a canonical string into the served key: a short prefix
// naming the product plus a truncated SHA-256 of the canonical form. The
// hash input is wire-stable, so keys survive process restarts (the golden
// tests pin them).
func hashKey(kind, canon string) string {
	sum := sha256.Sum256([]byte(canon))
	return kind + "-" + hex.EncodeToString(sum[:8])
}

// resolveConfig fills zero-valued cosmology fields with the paper's SCDM
// values, mirroring the zero-means-default convention of the product
// fields: nil is SCDM itself, and a partial config like {"H": 0.55,
// "Flatten": true} is a valid request. (A literal zero for a physical field
// — e.g. a baryonless model — is not expressible over the wire; vary the
// explicit fields instead.)
func resolveConfig(c *plinger.Config) *plinger.Config {
	var cfg plinger.Config
	if c != nil {
		cfg = *c
	}
	d := plinger.SCDM()
	if cfg.H == 0 {
		cfg.H = d.H
	}
	if cfg.OmegaC == 0 {
		cfg.OmegaC = d.OmegaC
	}
	if cfg.OmegaB == 0 {
		cfg.OmegaB = d.OmegaB
	}
	if cfg.TCMB == 0 {
		cfg.TCMB = d.TCMB
	}
	if cfg.YHe == 0 {
		cfg.YHe = d.YHe
	}
	if cfg.NNuMassless == 0 {
		cfg.NNuMassless = d.NNuMassless
	}
	if cfg.SpectralIndex == 0 {
		cfg.SpectralIndex = d.SpectralIndex
	}
	return &cfg
}

// ClRequest is one angular-power-spectrum request. The zero value asks for
// the service defaults: the SCDM cosmology of the paper and the daemon's
// configured resolution, computed by the fast line-of-sight engine.
type ClRequest struct {
	// Config selects the cosmology; nil means plinger.SCDM(), and
	// zero-valued fields of a partial config take their SCDM defaults.
	Config *plinger.Config `json:"config,omitempty"`
	// LMaxCl and NK set the resolution (0: service defaults).
	LMaxCl int `json:"lmax_cl,omitempty"`
	NK     int `json:"nk,omitempty"`
	// Exact disables the fast engine (FastEvolve + FastLOS + KRefine) and
	// runs the reference line-of-sight pipeline.
	Exact bool `json:"exact,omitempty"`
	// KRefine overrides the coarse-to-fine refinement factor (0: service
	// default; ignored when Exact).
	KRefine int `json:"krefine,omitempty"`
	// QCOBEMicroK, when positive, normalizes the spectrum to the COBE
	// quadrupole (microkelvin). Part of the cache key. Normalization never
	// costs a sweep: C_l is linear in the primordial amplitude, so a
	// normalized product is rescaled from the unnormalized product of the
	// same cosmology and grid, which is looked up (and swept, when cold) as
	// a request of its own.
	QCOBEMicroK float64 `json:"qcobe_uk,omitempty"`
	// DeadlineMS, when positive, bounds this request's wait in
	// milliseconds: past it the service answers 504 while the computation
	// continues and fills the cache for the next caller. A key already in
	// the cache is a hit and never waits. An execution knob like workers or
	// transport, it never enters the cache key.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// Validate rejects wire values the resolve step would otherwise silently
// clamp to defaults: negatives everywhere, and a positive COBE quadrupole
// too small for the key quantum (it would key like "no normalization"
// while normalizing). It also refuses a grid above its ceiling and a
// quantized value the key cannot hold. The facade validates the resolved
// options again.
func (r ClRequest) Validate() error {
	if r.LMaxCl < 0 || r.LMaxCl > maxWireLMaxCl {
		return fmt.Errorf("serve: lmax_cl = %d is outside [0, %d] (0 or omitted selects the default)", r.LMaxCl, maxWireLMaxCl)
	}
	if r.NK < 0 || r.NK > maxWireNK {
		return fmt.Errorf("serve: nk = %d is outside [0, %d] (0 or omitted selects the default)", r.NK, maxWireNK)
	}
	if r.KRefine < 0 {
		return fmt.Errorf("serve: krefine = %d is negative (0 or omitted selects the default)", r.KRefine)
	}
	if r.QCOBEMicroK < 0 || r.QCOBEMicroK > maxQuanta*stepQCOBE {
		return fmt.Errorf("serve: qcobe_uk = %g is outside [0, %g] (0 or omitted skips normalization)", r.QCOBEMicroK, maxQuanta*stepQCOBE)
	}
	if r.QCOBEMicroK > 0 && r.QCOBEMicroK < stepQCOBE {
		return fmt.Errorf("serve: qcobe_uk = %g is below the %g microkelvin key quantum", r.QCOBEMicroK, stepQCOBE)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("serve: deadline_ms = %d is negative (0 or omitted waits for the sweep)", r.DeadlineMS)
	}
	return checkConfig(r.Config)
}

// resolve fills service defaults into a copy of the request, so physically
// identical requests — spelled with zeros or with explicit defaults —
// canonicalize identically. The copy is what a peer forward carries: its
// deadline dropped.
func (r ClRequest) resolve(d Defaults) ClRequest {
	r.Config = resolveConfig(r.Config)
	r.DeadlineMS = 0
	if r.LMaxCl <= 0 {
		r.LMaxCl = d.LMaxCl
	}
	if r.NK <= 0 {
		r.NK = d.NK
	}
	if r.KRefine <= 0 {
		r.KRefine = d.KRefine
	}
	if r.Exact {
		r.KRefine = 1
	}
	return r
}

// canonical renders the resolved request. Only physics and product
// parameters enter — execution knobs (workers, transport, schedule) are
// excluded by construction, since the dispatch determinism contract makes
// the result independent of them.
func (r ClRequest) canonical() string {
	exact := 0
	if r.Exact {
		exact = 1
	}
	var b strings.Builder
	b.WriteString(keyVersion)
	b.WriteString("|cl|")
	b.WriteString(canonicalConfig(*r.Config))
	b.WriteString("|lmax_cl=")
	b.WriteString(strconv.Itoa(r.LMaxCl))
	b.WriteString(",nk=")
	b.WriteString(strconv.Itoa(r.NK))
	b.WriteString(",exact=")
	b.WriteString(strconv.Itoa(exact))
	b.WriteString(",krefine=")
	b.WriteString(strconv.Itoa(r.KRefine))
	b.WriteString(",qcobe=")
	b.WriteString(strconv.FormatInt(qfix(r.QCOBEMicroK, stepQCOBE), 10))
	return b.String()
}

// Key returns the stable cache key of the request under the given service
// defaults.
func (r ClRequest) Key(d Defaults) string {
	return hashKey("cl", r.resolve(d).canonical())
}

// PkRequest is one matter-power-spectrum request. The zero value asks for
// the SCDM cosmology on the default logarithmic k grid.
type PkRequest struct {
	// Config selects the cosmology; nil means plinger.SCDM(), and
	// zero-valued fields of a partial config take their SCDM defaults.
	Config *plinger.Config `json:"config,omitempty"`
	// KMin, KMax and NK set the logarithmic grid (0: library defaults).
	KMin float64 `json:"kmin,omitempty"`
	KMax float64 `json:"kmax,omitempty"`
	NK   int     `json:"nk,omitempty"`
	// Amp is the primordial amplitude (0: unit amplitude).
	Amp float64 `json:"amp,omitempty"`
	// DeadlineMS bounds this request's wait in milliseconds; see
	// ClRequest.DeadlineMS. Never part of the cache key.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// Validate is the PkRequest analogue of ClRequest.Validate.
func (r PkRequest) Validate() error {
	if r.KMin < 0 {
		return fmt.Errorf("serve: kmin = %g is negative (0 or omitted selects the default)", r.KMin)
	}
	if r.KMax < 0 {
		return fmt.Errorf("serve: kmax = %g is negative (0 or omitted selects the default)", r.KMax)
	}
	if r.NK < 0 || r.NK > maxWireNK {
		return fmt.Errorf("serve: nk = %d is outside [0, %d] (0 or omitted selects the default)", r.NK, maxWireNK)
	}
	if r.Amp < 0 {
		return fmt.Errorf("serve: amp = %g is negative (0 or omitted means unit amplitude)", r.Amp)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("serve: deadline_ms = %d is negative (0 or omitted waits for the sweep)", r.DeadlineMS)
	}
	return checkConfig(r.Config)
}

// resolve is the PkRequest analogue of ClRequest.resolve.
func (r PkRequest) resolve(d Defaults) PkRequest {
	r.Config = resolveConfig(r.Config)
	r.DeadlineMS = 0
	if r.KMin <= 0 {
		r.KMin = 2e-4
	}
	if r.KMax <= 0 {
		r.KMax = 0.5
	}
	if r.NK <= 0 {
		r.NK = d.PkNK
	}
	return r
}

// canonical is the PkRequest analogue of ClRequest.canonical.
func (r PkRequest) canonical() string {
	var b strings.Builder
	b.WriteString(keyVersion)
	b.WriteString("|pk|")
	b.WriteString(canonicalConfig(*r.Config))
	b.WriteString("|kmin=")
	b.WriteString(strconv.FormatInt(qln(r.KMin), 10))
	b.WriteString(",kmax=")
	b.WriteString(strconv.FormatInt(qln(r.KMax), 10))
	b.WriteString(",nk=")
	b.WriteString(strconv.Itoa(r.NK))
	b.WriteString(",amp=")
	b.WriteString(strconv.FormatInt(qln(r.Amp), 10))
	return b.String()
}

// Key returns the stable cache key of the request under the given service
// defaults.
func (r PkRequest) Key(d Defaults) string {
	return hashKey("pk", r.resolve(d).canonical())
}

// modelKey is the cosmology part alone — the model-registry key, shared by
// every product of one cosmology.
func modelKey(c plinger.Config) string {
	return hashKey("mdl", keyVersion+"|"+canonicalConfig(c))
}
