package fam

import (
	"context"
	"errors"
	"testing"
)

// TestSelectBadOptionsTyped: every validation failure of Select and
// Evaluate must match ErrBadOptions, so servers can map them to 400s
// without string matching.
func TestSelectBadOptionsTyped(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	cases := []struct {
		name string
		q    Query
	}{
		{"k zero", Query{K: 0}},
		{"k negative", Query{K: -3}},
		{"k beyond n", Query{K: ds.N() + 1}},
		{"unknown algorithm", Query{K: 3, Algorithm: Algorithm(42)}},
		{"negative algorithm", Query{K: 3, Algorithm: Algorithm(-1)}},
		{"epsilon too large", Query{K: 3, Epsilon: 1}},
		{"epsilon negative", Query{K: 3, Epsilon: -0.1}},
		{"sigma too large", Query{K: 3, Sigma: 2}},
		{"negative sample size", Query{K: 3, SampleSize: -10}},
		{"exact discrete on continuous dist", Query{K: 3, ExactDiscrete: true}},
	}
	for _, tc := range cases {
		tc.q.Data, tc.q.Dist = ds, dist
		if _, _, err := Select(ctx, tc.q, Exec{}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Select %s: err = %v, want ErrBadOptions", tc.name, err)
		}
	}

	// Evaluate shares the normalization but ignores K and Algorithm.
	if _, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: []int{0, 1}, Epsilon: 3}, Exec{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Evaluate bad epsilon: want ErrBadOptions")
	}
	if _, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: []int{0, 1}, K: -5, SampleSize: 50}, Exec{}); err != nil {
		t.Errorf("Evaluate must ignore K: %v", err)
	}

	// Dimension mismatch is an options-level failure too.
	wrongDim, err := UniformLinear(ds.Dim() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Select(ctx, Query{Data: ds, Dist: wrongDim, K: 3}, Exec{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("dimension mismatch: want ErrBadOptions, got %v", err)
	}

	// Nil arguments keep their own sentinel.
	if _, _, err := Select(ctx, Query{Dist: dist, K: 3}, Exec{}); !errors.Is(err, ErrNilArgument) {
		t.Errorf("nil dataset: want ErrNilArgument, got %v", err)
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for a := GreedyShrink; a <= GreedyAdd; a++ {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, want %v", a.String(), got, a)
		}
	}
	// Case-insensitive: the CLI and the HTTP API accept the same names.
	if got, err := ParseAlgorithm("GREEDY-Shrink"); err != nil || got != GreedyShrink {
		t.Fatalf("ParseAlgorithm(GREEDY-Shrink) = (%v, %v)", got, err)
	}
	if _, err := ParseAlgorithm("nope"); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unknown name: err = %v, want ErrBadOptions", err)
	}
	if _, err := ParseAlgorithm("unknown"); err == nil {
		t.Fatal("the String() fallback name must not parse")
	}
}

// TestSampleSizeDefaults pins the resolved sample sizes the caches key
// on: defaults (ε = σ = 0.1 → 691) and explicit overrides.
func TestSampleSizeDefaults(t *testing.T) {
	ds, dist := hotelSetup(t)
	norm, err := normalizeQuery(ds, dist, Query{K: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if norm.sampleSize != 691 {
		t.Fatalf("default sample size = %d, want 691", norm.sampleSize)
	}
	norm, err = normalizeQuery(ds, dist, Query{K: 3, SampleSize: 77}, true)
	if err != nil || norm.sampleSize != 77 {
		t.Fatalf("explicit sample size = %d (%v), want 77", norm.sampleSize, err)
	}
	if !norm.useSkyline {
		t.Fatal("monotone linear Θ must enable the skyline restriction")
	}
	norm, err = normalizeQuery(ds, dist, Query{K: 3, Algorithm: SkyDom}, true)
	if err != nil || norm.useSkyline {
		t.Fatalf("SkyDom must bypass the skyline restriction (%v)", err)
	}
}

// TestSampleSizeCap: a sample size that would exhaust memory — from a
// tiny Epsilon, from an Epsilon so small that Theorem 4's bound overflows
// int, or given directly — is a bad option, not a crash or a 500.
// Without the cap the Engine case panics in a detached fill goroutine
// and takes the whole test process down with it.
func TestSampleSizeCap(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	engine := NewEngine(EngineConfig{})
	t.Cleanup(engine.Close)
	if err := engine.Register("hotels", ds, dist); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		q    Query
	}{
		{"epsilon 1e-7", Query{K: 3, Epsilon: 1e-7}},
		{"epsilon 1e-10 overflows int", Query{K: 3, Epsilon: 1e-10}},
		{"epsilon 1.2e-3, N just over the cap", Query{K: 3, Epsilon: 1.2e-3}},
		{"explicit sample size", Query{K: 3, SampleSize: maxSampleSize + 1}},
	}
	for _, tc := range cases {
		oneShot := tc.q
		oneShot.Data, oneShot.Dist = ds, dist
		if _, _, err := Select(ctx, oneShot, Exec{}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Select %s: err = %v, want ErrBadOptions", tc.name, err)
		}
		if _, err := Evaluate(ctx, oneShot, Exec{}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Evaluate %s: err = %v, want ErrBadOptions", tc.name, err)
		}
		q := tc.q
		q.Dataset = "hotels"
		if _, _, err := engine.Select(ctx, q, Exec{}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Engine.Select %s: err = %v, want ErrBadOptions", tc.name, err)
		}
		if _, err := q.Fingerprint(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Fingerprint %s: err = %v, want ErrBadOptions", tc.name, err)
		}
	}
	// The cap itself is allowed: resolution accepts it without drawing.
	if n, err := resolveSampleSize(0, 0, maxSampleSize); err != nil || n != maxSampleSize {
		t.Fatalf("resolveSampleSize at the cap = %d, %v", n, err)
	}
	// The engine still answers after the rejected requests.
	if _, _, err := engine.Select(ctx, Query{Dataset: "hotels", K: 3, SampleSize: 50}, Exec{}); err != nil {
		t.Fatalf("Engine.Select after rejections: %v", err)
	}
}
