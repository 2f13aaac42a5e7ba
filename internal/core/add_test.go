package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/regretlab/fam/internal/rng"
)

func TestGreedyAddValidation(t *testing.T) {
	in := randomInstance(t, 6, 2, 20, 1)
	ctx := context.Background()
	if _, _, err := GreedyAdd(ctx, nil, 2); err == nil {
		t.Fatal("nil instance must error")
	}
	if _, _, err := GreedyAdd(ctx, in, 0); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, _, err := GreedyAdd(ctx, in, 7); err == nil {
		t.Fatal("k>n must error")
	}
	if _, err := GreedyAddPlain(ctx, nil, 2); err == nil {
		t.Fatal("plain nil instance must error")
	}
	if _, err := GreedyAddPlain(ctx, in, 0); err == nil {
		t.Fatal("plain k=0 must error")
	}
}

// The lazy-accelerated GreedyAdd must match the unaccelerated reference on
// random instances.
func TestGreedyAddLazyMatchesPlain(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(0); seed < 20; seed++ {
		g := rng.New(seed + 700)
		n := g.IntN(15) + 5
		N := g.IntN(50) + 10
		in := sampledTableInstance(g, n, N)
		k := g.IntN(n) + 1
		lazy, _, err := GreedyAdd(ctx, in, k)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := GreedyAddPlain(ctx, in, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(lazy) != len(plain) {
			t.Fatalf("seed %d: %v vs %v", seed, lazy, plain)
		}
		for i := range lazy {
			if lazy[i] != plain[i] {
				t.Fatalf("seed %d: lazy %v != plain %v", seed, lazy, plain)
			}
		}
	}
}

// GreedyAdd must actually skip evaluations (the lazy acceleration works).
func TestGreedyAddSkipsEvaluations(t *testing.T) {
	in := randomInstance(t, 80, 4, 400, 3)
	_, stats, err := GreedyAdd(context.Background(), in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EvalSkipped <= 0 {
		t.Fatalf("no evaluations skipped: %+v", stats)
	}
	if stats.Evaluations >= stats.CandidateTotal+in.NumPoints() {
		t.Fatalf("lazy add evaluated everything: %+v", stats)
	}
}

// Add and shrink are different heuristics but should land in the same
// quality neighborhood; both must be optimal at k = n.
func TestGreedyAddVsShrinkQuality(t *testing.T) {
	ctx := context.Background()
	in := randomInstance(t, 40, 3, 600, 5)
	for _, k := range []int{1, 5, 15, 40} {
		addSet, _, err := GreedyAdd(ctx, in, k)
		if err != nil {
			t.Fatal(err)
		}
		shrinkSet, _, err := GreedyShrink(ctx, in, k, StrategyDelta)
		if err != nil {
			t.Fatal(err)
		}
		if len(addSet) != k {
			t.Fatalf("k=%d: add set %v", k, addSet)
		}
		addARR, shrinkARR := mustARR(t, in, addSet), mustARR(t, in, shrinkSet)
		if math.Abs(addARR-shrinkARR) > 0.05 {
			t.Fatalf("k=%d: add %v and shrink %v far apart", k, addARR, shrinkARR)
		}
	}
	// k = n: both must select everything and reach arr 0.
	addSet, _, _ := GreedyAdd(ctx, in, 40)
	if arr := mustARR(t, in, addSet); len(addSet) != 40 || arr != 0 {
		t.Fatalf("k=n: %d points, arr %v", len(addSet), arr)
	}
}

func TestGreedyAddCancel(t *testing.T) {
	in := randomInstance(t, 30, 3, 100, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := GreedyAdd(ctx, in, 3); err == nil {
		t.Fatal("canceled context must error")
	}
	if _, err := GreedyAddPlain(ctx, in, 3); err == nil {
		t.Fatal("plain canceled context must error")
	}
}

// GreedyAdd on a weighted instance equals GreedyAdd on the replicated one.
func TestGreedyAddWeighted(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(0); seed < 8; seed++ {
		weighted, plain := weightedAndReplicated(t, seed+800)
		k := weighted.NumPoints()/2 + 1
		sw, _, err := GreedyAdd(ctx, weighted, k)
		if err != nil {
			t.Fatal(err)
		}
		sp, _, err := GreedyAdd(ctx, plain, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sw {
			if sw[i] != sp[i] {
				t.Fatalf("seed %d: weighted %v != replicated %v", seed, sw, sp)
			}
		}
	}
}

// GreedyAddPlain is the unaccelerated reference: every iteration evaluates
// every remaining candidate, sharded across the worker pool with the
// serial lowest-index argmax reduction. Used to validate the lazy version.
func GreedyAddPlain(ctx context.Context, in *Instance, k int) ([]int, error) {
	if in == nil {
		return nil, errors.New("core: nil instance")
	}
	n, N := in.NumPoints(), in.NumFuncs()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrBadK, k, n)
	}
	pool := newEvalPool(in, nil)
	bestVal := make([]float64, N)
	inSet := make([]bool, n)
	gains := make([]float64, n)
	var selected []int
	for len(selected) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := pool.run(ctx, n, func(w, lo, hi int) {
			for p := lo; p < hi; p++ {
				if ctx.Err() != nil {
					return
				}
				if inSet[p] {
					continue
				}
				var g float64
				for u := 0; u < N; u++ {
					if in.satD[u] <= 0 {
						continue
					}
					if v := in.Utility(u, p); v > bestVal[u] {
						g += in.Weight(u) * (v - bestVal[u]) / in.satD[u]
					}
				}
				gains[p] = g
			}
		}); err != nil {
			return nil, err
		}
		chosen, chosenGain := -1, -1.0
		for p := 0; p < n; p++ {
			if inSet[p] {
				continue
			}
			if gains[p] > chosenGain {
				chosen, chosenGain = p, gains[p]
			}
		}
		inSet[chosen] = true
		selected = append(selected, chosen)
		for u := 0; u < N; u++ {
			if v := in.Utility(u, chosen); v > bestVal[u] {
				bestVal[u] = v
			}
		}
	}
	sort.Ints(selected)
	return selected, nil
}
