package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"sort"

	"plinger"
	"plinger/internal/serve"
)

// Everything the program under test receives is made here from the seed:
// the cosmologies, the order hot keys are asked for, and the open-loop
// arrival times. The program sees only the resulting requests. Each use
// draws from its own PCG stream so adding a draw to one never shifts
// another.
const (
	streamCosmo  = 1 // hot-set cosmologies
	streamChoice = 2 // which hot key a client asks for next
	streamMixed  = 3 // open-loop arrivals and their never-seen cosmologies
)

func newRand(seed uint64, stream, sub uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<32|sub))
}

// sampleCosmology draws a flat model: SCDM with H in [0.45, 0.75], Omega_b
// in [0.03, 0.08] and cold dark matter closing the universe. Values are
// rounded to the serving layer's key quanta so that two draws are either
// the same key or clearly different ones.
func sampleCosmology(r *rand.Rand) plinger.Config {
	c := plinger.SCDM()
	c.H = math.Round((0.45+0.30*r.Float64())*1e4) / 1e4
	c.OmegaB = math.Round((0.03+0.05*r.Float64())*1e5) / 1e5
	c.OmegaC = math.Round((1-c.OmegaB)*1e5) / 1e5
	c.Flatten = true
	return c
}

// request is one generated /v1/cl request: the value handed to in-process
// calls and the exact bytes POSTed over HTTP.
type request struct {
	Req  serve.ClRequest
	Body []byte
}

func newRequest(req serve.ClRequest) request {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of numbers and bools cannot fail to encode
	}
	return request{Req: req, Body: body}
}

// hotSet is the resident working set of the serve workloads: nCosmo seeded
// cosmologies x the given LMaxCl values x COBE normalization off/on x NK
// {service default, +10}. With 8 cosmologies and two LMaxCl values that is
// the issue's 64 keys.
func hotSet(seed uint64, nCosmo int, lmaxCls []int, defaults serve.Defaults) []request {
	r := newRand(seed, streamCosmo, 0)
	var out []request
	for c := 0; c < nCosmo; c++ {
		cfg := sampleCosmology(r)
		for _, lmax := range lmaxCls {
			for _, qcobe := range []float64{0, 18} {
				for _, nk := range []int{0, defaults.NK + 10} {
					cc := cfg
					out = append(out, newRequest(serve.ClRequest{
						Config: &cc, LMaxCl: lmax, NK: nk, QCOBEMicroK: qcobe,
					}))
				}
			}
		}
	}
	return out
}

// hotChooser yields the uniform hot-key sequence of one closed-loop
// client. The sequence depends only on (seed, process, client): a slower
// server sees a shorter prefix of the same list.
func hotChooser(seed uint64, proc, client, nKeys int) func() int {
	r := newRand(seed, streamChoice, uint64(proc)<<16|uint64(client))
	return func() int { return r.IntN(nKeys) }
}

// Classes of an open-loop arrival.
const (
	classHot    = "hot"
	classCold   = "cold"
	classRepeat = "repeat"
)

// arrival is one scheduled open-loop request. Latency is counted from Due
// whether or not the generator manages to send on time.
type arrival struct {
	DueNS int64  // offset from the start of the round
	Class string // classHot, classCold or classRepeat
	Hot   int    // index into the hot set (classHot)
	Pair  int    // cold/repeat pairs share an id
	Body  []byte
}

// mixedSpec shapes the open-loop traffic.
type mixedSpec struct {
	RatePerS    float64 // all classes together
	ColdShare   float64 // never-seen keys; an equal share repeats each one
	RepeatAfter int64   // ns between a cold request and its repeat
}

// mixedSchedule lays out one round of open-loop traffic: Poisson arrivals
// at the given total rate, of which ColdShare ask for a never-seen key (a
// fresh seeded flat cosmology at the service's stock product) and each of
// those is followed RepeatAfter later by a repeat of the same key, so the
// repeat lands while the first is still computing. The rest draw uniformly
// from the hot set. Only the timing is left to chance: which arrivals are
// cold is a seeded choice of exactly the stated share, so two rounds differ
// in when sweeps fall among the hits, not in how many there are. Same
// (seed, proc, round) gives the same bytes and due times.
func mixedSchedule(seed uint64, proc, round int, seconds float64, spec mixedSpec, nHot int) []arrival {
	r := newRand(seed, streamMixed, uint64(proc)<<16|uint64(round))
	// Repeats ride on cold arrivals, so the Poisson stream carries the
	// hot and cold classes only.
	baseRate := spec.RatePerS * (1 - spec.ColdShare)
	horizon := int64(seconds * 1e9)
	var due []int64
	for t := int64(0); ; {
		t += int64(r.ExpFloat64() / baseRate * 1e9)
		if t >= horizon {
			break
		}
		due = append(due, t)
	}
	nCold := int(math.Round(float64(len(due)) * spec.ColdShare / (1 - spec.ColdShare)))
	cold := make(map[int]bool, nCold)
	for _, i := range r.Perm(len(due))[:nCold] {
		cold[i] = true
	}
	var out []arrival
	pair := 0
	for i, t := range due {
		if !cold[i] {
			out = append(out, arrival{DueNS: t, Class: classHot, Hot: r.IntN(nHot)})
			continue
		}
		cfg := sampleCosmology(r)
		body := newRequest(serve.ClRequest{Config: &cfg}).Body
		out = append(out,
			arrival{DueNS: t, Class: classCold, Pair: pair, Body: body},
			arrival{DueNS: t + spec.RepeatAfter, Class: classRepeat, Pair: pair, Body: body})
		pair++
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].DueNS < out[b].DueNS })
	return out
}
