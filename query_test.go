package fam

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// TestQueryFingerprintCanonical: the fingerprint folds the sampling
// parameters to their resolved form and excludes everything that is
// execution policy, so semantically equal queries share one identity.
func TestQueryFingerprintCanonical(t *testing.T) {
	base := Query{Dataset: "hotels", K: 5, Seed: 7}

	// ε = σ = 0.1 resolves to N = 691, so defaulted and explicit forms
	// collapse to one fingerprint.
	explicit := base
	explicit.Epsilon, explicit.Sigma = 0.1, 0.1
	fixed := base
	fixed.SampleSize = 691
	fpBase, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]Query{"explicit eps/sigma": explicit, "explicit N": fixed} {
		fp, err := q.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != fpBase {
			t.Fatalf("%s: fingerprint %q != canonical %q", name, fp, fpBase)
		}
	}

	// Semantic fields move the fingerprint…
	for name, mod := range map[string]func(*Query){
		"K":           func(q *Query) { q.K = 6 },
		"Algorithm":   func(q *Query) { q.Algorithm = GreedyAdd },
		"Seed":        func(q *Query) { q.Seed = 8 },
		"SampleSize":  func(q *Query) { q.SampleSize = 100 },
		"Skyline":     func(q *Query) { q.DisableSkyline = true },
		"CacheBudget": func(q *Query) { q.CacheBudget = -1 },
		"Dataset":     func(q *Query) { q.Dataset = "nba" },
		"ExplicitSet": func(q *Query) { q.ExplicitSet = []int{1, 2} },
	} {
		q := base
		mod(&q)
		fp, err := q.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp == fpBase {
			t.Fatalf("changing %s did not change the fingerprint %q", name, fp)
		}
	}

	// …and Exec never enters it at all: the fingerprint is a method on
	// Query alone, which is the whole point of the split.

	// Invalid sampling parameters and unknown algorithms are rejected.
	bad := base
	bad.SampleSize = -1
	if _, err := bad.Fingerprint(); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative sample size: %v", err)
	}
	bad = base
	bad.Algorithm = Algorithm(99)
	if _, err := bad.Fingerprint(); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unknown algorithm: %v", err)
	}
}

// TestSelectRejectsEvaluationQuery: Select rejects evaluation queries
// instead of silently ignoring the set.
func TestSelectRejectsEvaluationQuery(t *testing.T) {
	ds, dist := hotelSetup(t)
	q := Query{Data: ds, Dist: dist, K: 4, Seed: 3, SampleSize: 150, ExplicitSet: []int{0, 1}}
	if _, _, err := Select(context.Background(), q, Exec{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Select with ExplicitSet: %v", err)
	}
}

// TestAlgorithmTextRoundTrip: MarshalText/UnmarshalText must agree with
// String/ParseAlgorithm so JSON and CLI surfaces speak names, not ints.
func TestAlgorithmTextRoundTrip(t *testing.T) {
	for a := GreedyShrink; a <= GreedyAdd; a++ {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if string(text) != a.String() {
			t.Fatalf("MarshalText %q != String %q", text, a.String())
		}
		var back Algorithm
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != a {
			t.Fatalf("round trip %v -> %v", a, back)
		}
	}
	if _, err := Algorithm(99).MarshalText(); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("marshal unknown: %v", err)
	}
	var a Algorithm
	if err := a.UnmarshalText([]byte("nope")); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unmarshal unknown: %v", err)
	}

	// Through encoding/json, as the v2 API uses it.
	var payload struct {
		Algorithm Algorithm `json:"algorithm"`
	}
	if err := json.Unmarshal([]byte(`{"algorithm":"GREEDY-Add"}`), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Algorithm != GreedyAdd {
		t.Fatalf("json algorithm = %v", payload.Algorithm)
	}
	out, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"algorithm":"greedy-add"}` {
		t.Fatalf("json out = %s", out)
	}
}
