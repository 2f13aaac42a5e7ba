package core

import (
	"context"
	"math"
	"testing"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/utility"
)

func float32Instance(t testing.TB, seed uint64, n, d, N int, f32 bool, budget int64) *Instance {
	t.Helper()
	g := rng.New(seed)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		g.UniformVec(p)
		pts[i] = p
	}
	dist, err := utility.NewUniformSimplexLinear(d)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := sampling.Sample(dist, N, g)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(pts, funcs, Options{Float32: f32, CacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Float32 mode is stats-tolerant, not bit-identical: per-element
// utilities round through float32, so ARR may drift by the rounding
// (~1e-7 relative) and tie-breaks can flip. The mode's contract is that
// every observable stays within that tolerance of the float64 run.
func TestFloat32Tolerance(t *testing.T) {
	ctx := context.Background()
	const n, d, N, k = 80, 4, 300, 10
	for _, seed := range []uint64{2, 29} {
		f64in := float32Instance(t, seed, n, d, N, false, 0)
		f32in := float32Instance(t, seed, n, d, N, true, 0)
		if !f32in.Float32() || f64in.Float32() {
			t.Fatal("Float32 accessor does not reflect the option")
		}
		for _, strat := range []Strategy{StrategyDelta, StrategyLazy, StrategyNaive} {
			ref, _, err := GreedyShrink(ctx, f64in, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			set, _, err := GreedyShrink(ctx, f32in, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			if len(set) != len(ref) {
				t.Fatalf("seed=%d %v: |set| = %d, want %d", seed, strat, len(set), len(ref))
			}
			if diff := math.Abs(mustARR(t, f32in, set) - mustARR(t, f64in, ref)); diff > 1e-5 {
				t.Fatalf("seed=%d %v: float32 ARR drifted %v from float64", seed, strat, diff)
			}
		}
	}
}

// Float32 rounding applies on the uncached recompute path too, so
// results never depend on whether the matrix fit the cache budget.
func TestFloat32CacheBudgetIndependent(t *testing.T) {
	ctx := context.Background()
	const n, d, N, k = 60, 3, 200, 8
	cached := float32Instance(t, 17, n, d, N, true, 0)
	uncached := float32Instance(t, 17, n, d, N, true, -1)
	if !cached.Cached() || uncached.Cached() {
		t.Fatalf("cache flags: %v %v", cached.Cached(), uncached.Cached())
	}
	for u := 0; u < N; u += 37 {
		for p := 0; p < n; p += 13 {
			if cached.Utility(u, p) != uncached.Utility(u, p) {
				t.Fatalf("f32 utility (%d,%d) differs cached vs uncached", u, p)
			}
		}
	}
	for _, strat := range []Strategy{StrategyDelta, StrategyLazy, StrategyNaive} {
		ref, _, err := GreedyShrink(ctx, cached, k, strat)
		if err != nil {
			t.Fatal(err)
		}
		set, _, err := GreedyShrink(ctx, uncached, k, strat)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, "f32-budget", set, ref)
		if got, want := mustARR(t, uncached, set), mustARR(t, cached, ref); got != want {
			t.Fatalf("%v: ARR %v != %v across cache budgets", strat, got, want)
		}
	}
	addRef, _, err := GreedyAdd(ctx, cached, k)
	if err != nil {
		t.Fatal(err)
	}
	addSet, _, err := GreedyAdd(ctx, uncached, k)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "f32-budget-add", addSet, addRef)
}
