package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"plinger/internal/serve"
)

var testMixed = mixedSpec{RatePerS: 300, ColdShare: 0.02, RepeatAfter: int64(5 * time.Millisecond)}

func TestCosmologySamplerRanges(t *testing.T) {
	r := newRand(3, streamCosmo, 0)
	for i := 0; i < 1000; i++ {
		c := sampleCosmology(r)
		if c.H < 0.45 || c.H > 0.75 || c.OmegaB < 0.03 || c.OmegaB > 0.08 {
			t.Fatalf("draw %d out of range: H %g, Omega_b %g", i, c.H, c.OmegaB)
		}
		if !c.Flatten || c.OmegaLambda != 0 || math.Abs(c.OmegaC+c.OmegaB-1) > 1e-9 {
			t.Fatalf("draw %d is not flat matter-only: %+v", i, c)
		}
	}
}

func TestHotSetIsSeededAndDistinct(t *testing.T) {
	d := serve.DefaultDefaults()
	a := hotSet(11, 8, []int{150, 300}, d)
	b := hotSet(11, 8, []int{150, 300}, d)
	other := hotSet(12, 8, []int{150, 300}, d)
	if len(a) != 64 {
		t.Fatalf("hot set has %d keys, want 64", len(a))
	}
	keys := map[string]bool{}
	same := 0
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("request %d differs between two builds from one seed", i)
		}
		if bytes.Equal(a[i].Body, other[i].Body) {
			same++
		}
		keys[a[i].Req.Key(d)] = true
	}
	if len(keys) != 64 {
		t.Errorf("hot set has %d distinct cache keys, want 64", len(keys))
	}
	if same != 0 {
		t.Errorf("%d requests are equal under another seed", same)
	}
}

func TestHotChooserIsAPrefixStableSequence(t *testing.T) {
	long, short := hotChooser(5, 1, 0, 64), hotChooser(5, 1, 0, 64)
	otherClient := hotChooser(5, 1, 1, 64)
	differs := false
	for i := 0; i < 500; i++ {
		k := long()
		if k < 0 || k >= 64 {
			t.Fatalf("choice %d out of range", k)
		}
		if i < 100 && short() != k {
			t.Fatal("the same (seed, process, client) must give the same sequence")
		}
		if otherClient() != k {
			differs = true
		}
	}
	if !differs {
		t.Error("two clients ask for the same keys in the same order")
	}
}

func TestMixedScheduleIsSeededPoisson(t *testing.T) {
	const seconds = 60
	a := mixedSchedule(9, 0, 0, seconds, testMixed, 64)
	b := mixedSchedule(9, 0, 0, seconds, testMixed, 64)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	counts := map[string]int{}
	cold := map[int]arrival{}
	for i := range a {
		if a[i].DueNS != b[i].DueNS || a[i].Class != b[i].Class || a[i].Hot != b[i].Hot || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("arrival %d differs between two schedules from one seed", i)
		}
		if i > 0 && a[i].DueNS < a[i-1].DueNS {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		counts[a[i].Class]++
		switch a[i].Class {
		case classCold:
			cold[a[i].Pair] = a[i]
		case classRepeat:
			first, ok := cold[a[i].Pair]
			if !ok {
				t.Fatalf("repeat of pair %d precedes its cold request", a[i].Pair)
			}
			if a[i].DueNS-first.DueNS != testMixed.RepeatAfter || !bytes.Equal(a[i].Body, first.Body) {
				t.Fatalf("pair %d: repeat is not the same request 5 ms later", a[i].Pair)
			}
		}
	}
	total := float64(len(a))
	if rate := total / seconds; math.Abs(rate-300) > 15 {
		t.Errorf("rate = %.1f/s, want 300 within 5%%", rate)
	}
	if counts[classCold] != counts[classRepeat] {
		t.Errorf("%d cold but %d repeat arrivals", counts[classCold], counts[classRepeat])
	}
	if share := float64(counts[classCold]) / total; share < 0.015 || share > 0.025 {
		t.Errorf("cold share = %.4f, want about 0.02", share)
	}
	if c := mixedSchedule(10, 0, 0, seconds, testMixed, 64); len(c) == len(a) && c[0].DueNS == a[0].DueNS {
		t.Error("another seed gave the same schedule")
	}
	if c := mixedSchedule(9, 0, 1, seconds, testMixed, 64); c[0].DueNS == a[0].DueNS {
		t.Error("another round gave the same schedule")
	}
}
