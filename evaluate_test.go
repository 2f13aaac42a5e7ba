package fam

import (
	"context"
	"errors"
	"testing"
)

// Evaluate (and the metrics evaluation inside Select) must reject
// malformed selection sets with the typed ErrInvalidSet instead of
// silently computing on duplicates or out-of-range indices.
func TestEvaluateSetValidation(t *testing.T) {
	ctx := context.Background()
	ds, err := Synthetic(10, 3, Independent, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(3)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		set     []int
		wantErr bool
	}{
		{"valid", []int{0, 3, 9}, false},
		{"single", []int{5}, false},
		{"empty", nil, true},
		{"empty slice", []int{}, true},
		{"duplicate", []int{1, 4, 1}, true},
		{"negative index", []int{-1, 2}, true},
		{"index == n", []int{0, 10}, true},
		{"index beyond n", []int{0, 999}, true},
		{"larger than dataset", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: tc.set, Seed: 1, SampleSize: 50}, Exec{})
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if m.ARR < 0 || m.ARR > 1 {
					t.Fatalf("ARR = %v", m.ARR)
				}
				return
			}
			if err == nil {
				t.Fatalf("set %v accepted, want error", tc.set)
			}
			if !errors.Is(err, ErrInvalidSet) {
				t.Fatalf("err = %v, want errors.Is(ErrInvalidSet)", err)
			}
		})
	}
}

// Select must reject out-of-range K before running any solver.
func TestSelectKValidation(t *testing.T) {
	ctx := context.Background()
	ds, err := Synthetic(8, 2, Independent, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, -3, 9, 100} {
		if _, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: k, Seed: 1, SampleSize: 30}, Exec{}); err == nil {
			t.Fatalf("K=%d accepted, want error (n=8)", k)
		}
	}
}
