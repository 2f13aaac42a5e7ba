package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/utility"
)

// SetCoverInstance is an instance of the Set Cover decision problem:
// does a sub-collection of at most K subsets cover the whole universe?
type SetCoverInstance struct {
	UniverseSize int     // elements are 0 .. UniverseSize-1
	Subsets      [][]int // each subset lists the elements it contains
	K            int
}

// ReduceSetCover builds the FAM instance of the paper's Theorem 1 proof:
// one database point per subset, and one utility function per universe
// element whose utility vector is the indicator of the subsets containing
// that element (the paper's F_i spaces, taken at c = 1 with uniform mass).
// The reduction's defining property — the instance admits a size-K
// selection with average regret ratio 0 if and only if the Set Cover
// instance is a yes-instance — is what makes FAM NP-hard, and is verified
// by tests against exhaustive search.
func ReduceSetCover(sc SetCoverInstance) (*Instance, error) {
	if sc.UniverseSize <= 0 {
		return nil, errors.New("core: empty universe")
	}
	if len(sc.Subsets) == 0 {
		return nil, errors.New("core: no subsets")
	}
	if sc.K <= 0 {
		return nil, errors.New("core: K must be positive")
	}
	covered := make([]bool, sc.UniverseSize)
	for si, sub := range sc.Subsets {
		for _, e := range sub {
			if e < 0 || e >= sc.UniverseSize {
				return nil, fmt.Errorf("core: subset %d contains element %d outside universe [0,%d)", si, e, sc.UniverseSize)
			}
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			// The paper restricts to non-trivial instances where every
			// element is coverable; otherwise the answer is trivially no.
			return nil, fmt.Errorf("core: element %d is in no subset (trivial no-instance)", e)
		}
	}

	// Point i (one per subset) is the coordinate vector e_i; utility
	// function for element u is the Table whose entry for subset i is 1
	// iff u ∈ subset i.
	n := len(sc.Subsets)
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{float64(i)} // coordinates unused by Table
	}
	funcs := make([]utility.Func, sc.UniverseSize)
	for u := 0; u < sc.UniverseSize; u++ {
		tu := make([]float64, n)
		for si, sub := range sc.Subsets {
			for _, e := range sub {
				if e == u {
					tu[si] = 1
					break
				}
			}
		}
		funcs[u] = utility.Table{U: tu}
	}
	return NewInstance(points, funcs, Options{})
}

// HasZeroRegretSelection answers the decision question on a reduced
// instance by exact search: is there a size-k selection with arr exactly
// 0? By Theorem 1's correctness lemma this equals the Set Cover answer.
// It is exponential in the worst case (the point of the reduction) and is
// meant for small instances and tests.
func HasZeroRegretSelection(ctx context.Context, in *Instance, k int) (bool, []int, error) {
	set, arr, err := BruteForce(ctx, in, k)
	if err != nil {
		return false, nil, err
	}
	return arr == 0, set, nil
}

func TestReduceSetCoverValidation(t *testing.T) {
	if _, err := ReduceSetCover(SetCoverInstance{UniverseSize: 0, Subsets: [][]int{{0}}, K: 1}); err == nil {
		t.Fatal("empty universe must error")
	}
	if _, err := ReduceSetCover(SetCoverInstance{UniverseSize: 2, Subsets: nil, K: 1}); err == nil {
		t.Fatal("no subsets must error")
	}
	if _, err := ReduceSetCover(SetCoverInstance{UniverseSize: 2, Subsets: [][]int{{0, 1}}, K: 0}); err == nil {
		t.Fatal("K=0 must error")
	}
	if _, err := ReduceSetCover(SetCoverInstance{UniverseSize: 2, Subsets: [][]int{{0, 5}}, K: 1}); err == nil {
		t.Fatal("out-of-universe element must error")
	}
	if _, err := ReduceSetCover(SetCoverInstance{UniverseSize: 3, Subsets: [][]int{{0, 1}}, K: 1}); err == nil {
		t.Fatal("uncoverable element must error")
	}
}

func TestReduceSetCoverYesInstance(t *testing.T) {
	// Universe {0..4}; subsets {0,1},{2,3},{4},{1,2}; cover of size 3
	// exists ({0,1},{2,3},{4}).
	sc := SetCoverInstance{
		UniverseSize: 5,
		Subsets:      [][]int{{0, 1}, {2, 3}, {4}, {1, 2}},
		K:            3,
	}
	in, err := ReduceSetCover(sc)
	if err != nil {
		t.Fatal(err)
	}
	yes, cover, err := HasZeroRegretSelection(context.Background(), in, sc.K)
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Fatal("expected a yes-instance")
	}
	// The witness must be an actual cover.
	covered := make([]bool, sc.UniverseSize)
	for _, si := range cover {
		for _, e := range sc.Subsets[si] {
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			t.Fatalf("witness %v does not cover element %d", cover, e)
		}
	}
}

func TestReduceSetCoverNoInstance(t *testing.T) {
	// Three disjoint pairs cannot be covered by 2 subsets.
	sc := SetCoverInstance{
		UniverseSize: 6,
		Subsets:      [][]int{{0, 1}, {2, 3}, {4, 5}},
		K:            2,
	}
	in, err := ReduceSetCover(sc)
	if err != nil {
		t.Fatal(err)
	}
	yes, _, err := HasZeroRegretSelection(context.Background(), in, sc.K)
	if err != nil {
		t.Fatal(err)
	}
	if yes {
		t.Fatal("expected a no-instance")
	}
}

// Property: on random small instances, the FAM answer equals a direct
// exhaustive set-cover check — Lemma 6 (correctness of the reduction).
func TestReductionMatchesDirectSetCover(t *testing.T) {
	g := rng.New(97)
	for trial := 0; trial < 40; trial++ {
		uSize := g.IntN(6) + 2
		nSubs := g.IntN(5) + 2
		subs := make([][]int, nSubs)
		for si := range subs {
			var s []int
			for e := 0; e < uSize; e++ {
				if g.Float64() < 0.45 {
					s = append(s, e)
				}
			}
			subs[si] = s
		}
		// Ensure coverability (the reduction requires it).
		covered := make([]bool, uSize)
		for _, s := range subs {
			for _, e := range s {
				covered[e] = true
			}
		}
		for e, ok := range covered {
			if !ok {
				subs[0] = append(subs[0], e)
			}
		}
		k := g.IntN(nSubs) + 1
		sc := SetCoverInstance{UniverseSize: uSize, Subsets: subs, K: k}
		in, err := ReduceSetCover(sc)
		if err != nil {
			t.Fatal(err)
		}
		famYes, _, err := HasZeroRegretSelection(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		directYes := directSetCover(sc)
		if famYes != directYes {
			t.Fatalf("trial %d: FAM says %v, direct search says %v (%+v)", trial, famYes, directYes, sc)
		}
	}
}

// directSetCover answers Set Cover by brute force over subset choices.
func directSetCover(sc SetCoverInstance) bool {
	n := len(sc.Subsets)
	var rec func(start, picked int, covered []bool) bool
	full := func(covered []bool) bool {
		for _, ok := range covered {
			if !ok {
				return false
			}
		}
		return true
	}
	rec = func(start, picked int, covered []bool) bool {
		if full(covered) {
			return true
		}
		if picked == sc.K {
			return false
		}
		for si := start; si < n; si++ {
			next := append([]bool(nil), covered...)
			for _, e := range sc.Subsets[si] {
				next[e] = true
			}
			if rec(si+1, picked+1, next) {
				return true
			}
		}
		return false
	}
	return rec(0, 0, make([]bool, sc.UniverseSize))
}
