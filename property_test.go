package fam

import (
	"context"
	"math"
	"testing"

	"github.com/regretlab/fam/internal/geom"
	"github.com/regretlab/fam/internal/rng"
)

// propertyAlgos is every solver the cross-algorithm invariant harness
// runs. ARR-optimizing algorithms additionally face the random-baseline
// and exact-lower-bound checks; the non-ARR baselines (MRR-Greedy,
// Sky-Dom, K-Hit optimize different objectives) only face the structural
// invariants.
var propertyAlgos = []struct {
	algo        Algorithm
	optimizeARR bool
}{
	{GreedyShrink, true},
	{GreedyShrinkLazy, true},
	{GreedyShrinkNaive, true},
	{GreedyAdd, true},
	{BruteForce, true},
	{DP2D, false}, // exact on the continuous objective, not the sampled one
	{MRRGreedy, false},
	{SkyDom, false},
	{KHit, false},
}

// TestCrossAlgorithmInvariantsProperty is the property-based harness: on
// ~50 small seeded random 2-d instances it checks the invariants every
// algorithm must satisfy —
//
//   - the selection is non-empty, at most K points, with valid unique
//     ascending indices;
//   - the measured ARR lies in [0, 1];
//   - ARR-optimizing heuristics are never worse than the mean ARR of
//     seeded random K-subsets on the same sampled users;
//   - BruteForce (exact on the sampled objective) lower-bounds every
//     other algorithm's sampled ARR;
//   - DP2D (exact on the continuous 2-d objective) lower-bounds every
//     algorithm's exact continuous ARR.
func TestCrossAlgorithmInvariantsProperty(t *testing.T) {
	ctx := context.Background()
	corrs := []Correlation{Independent, Correlated, Anticorrelated}
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		g := rng.New(seed * 7919)
		n := 8 + g.IntN(7)  // 8..14 keeps BruteForce cheap
		k := 1 + g.IntN(3)  // 1..3
		N := 60 + g.IntN(3) // sampled users

		ds, err := Synthetic(n, 2, corrs[trial%len(corrs)], seed)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := UniformLinear(2)
		if err != nil {
			t.Fatal(err)
		}
		base := Query{Data: ds, Dist: dist, K: k, Seed: seed, SampleSize: N}

		// Random-set baseline on the same sampled users: the mean ARR of
		// ten uniformly drawn K-subsets (seeded — the harness is
		// deterministic). A single draw can get lucky on tiny instances;
		// the mean is what an optimizer must beat.
		var randomARR float64
		const draws = 10
		for d := 0; d < draws; d++ {
			q := base
			q.ExplicitSet = randomSubset(g, n, k)
			m, err := Evaluate(ctx, q, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			randomARR += m.ARR
		}
		randomARR /= draws

		results := make(map[Algorithm]*Result, len(propertyAlgos))
		for _, pa := range propertyAlgos {
			q := base
			q.Algorithm = pa.algo
			res, _, err := Select(ctx, q, Exec{})
			if err != nil {
				t.Fatalf("trial %d (n=%d k=%d): %s: %v", trial, n, k, pa.algo, err)
			}
			results[pa.algo] = res

			// Structural invariants.
			if len(res.Indices) == 0 || len(res.Indices) > k {
				t.Fatalf("trial %d %s: |set| = %d, want in (0, %d]", trial, pa.algo, len(res.Indices), k)
			}
			seen := make(map[int]bool, len(res.Indices))
			prev := -1
			for _, idx := range res.Indices {
				if idx < 0 || idx >= n {
					t.Fatalf("trial %d %s: index %d out of range [0,%d)", trial, pa.algo, idx, n)
				}
				if seen[idx] {
					t.Fatalf("trial %d %s: duplicate index %d in %v", trial, pa.algo, idx, res.Indices)
				}
				if idx <= prev {
					t.Fatalf("trial %d %s: indices not ascending: %v", trial, pa.algo, res.Indices)
				}
				seen[idx] = true
				prev = idx
			}
			if arr := res.Metrics.ARR; arr < 0 || arr > 1 || math.IsNaN(arr) {
				t.Fatalf("trial %d %s: ARR = %v outside [0,1]", trial, pa.algo, arr)
			}

			// ARR-optimizing algorithms must beat (or tie) the mean random
			// set.
			if pa.optimizeARR && res.Metrics.ARR > randomARR+1e-12 {
				t.Fatalf("trial %d %s: ARR %v worse than random baseline %v (set %v)",
					trial, pa.algo, res.Metrics.ARR, randomARR, res.Indices)
			}
		}

		// BruteForce is the exact optimum of the sampled objective: it
		// lower-bounds every algorithm's sampled ARR (all metrics are
		// measured on the same sampled users).
		bfARR := results[BruteForce].Metrics.ARR
		for _, pa := range propertyAlgos {
			if got := results[pa.algo].Metrics.ARR; got < bfARR-1e-9 {
				t.Fatalf("trial %d: %s sampled ARR %v beats BruteForce %v",
					trial, pa.algo, got, bfARR)
			}
		}

		// DP2D is the exact optimum of the continuous 2-d objective: its
		// exact ARR lower-bounds the exact ARR of every selection (padded
		// DP selections can be shorter than k; compare only full-size sets
		// of other algorithms, which padding can only improve).
		dpExact := results[DP2D].ExactARR
		if dpExact < 0 {
			t.Fatalf("trial %d: DP2D did not report an exact ARR", trial)
		}
		for _, pa := range propertyAlgos {
			exact, err := geom.ExactARR(ds.Points, results[pa.algo].Indices)
			if err != nil {
				t.Fatal(err)
			}
			if exact < dpExact-1e-9 {
				t.Fatalf("trial %d: %s exact ARR %v beats DP2D optimum %v (set %v)",
					trial, pa.algo, exact, dpExact, results[pa.algo].Indices)
			}
		}
	}
}

// TestCoresetARRBoundProperty is the ε-kernel quality harness: on ~50
// seeded random instances (sizes where the prepass actually prunes) the
// coreset-enabled run of every GREEDY-SHRINK-family solver must stay
// within CoresetEps of the unpruned run's ARR — the kernel guarantee —
// while reporting the pruned candidate count and, because every user's
// argmax survives the prepass, metrics that remain database-level
// quantities.
func TestCoresetARRBoundProperty(t *testing.T) {
	ctx := context.Background()
	corrs := []Correlation{Independent, Correlated, Anticorrelated}
	algos := []Algorithm{GreedyShrink, GreedyShrinkLazy, GreedyAdd}
	const trials = 50
	const eps = 0.1
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		g := rng.New(seed * 104729)
		n := 60 + g.IntN(60) // 60..119 points
		k := 2 + g.IntN(4)   // 2..5
		N := 80 + g.IntN(40) // sampled users
		d := 2 + trial%2     // 2-d and 3-d instances
		algo := algos[trial%len(algos)]

		ds, err := Synthetic(n, d, corrs[trial%len(corrs)], seed)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := UniformLinear(d)
		if err != nil {
			t.Fatal(err)
		}
		base := Query{Data: ds, Dist: dist, K: k, Algorithm: algo, Seed: seed, SampleSize: N}
		off, _, err := Select(ctx, base, Exec{})
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d %s): coreset off: %v", trial, n, k, algo, err)
		}
		if off.CoresetSize != -1 {
			t.Fatalf("trial %d: coreset-off run reports CoresetSize %d, want -1", trial, off.CoresetSize)
		}
		withCS := base
		withCS.Coreset, withCS.CoresetEps = true, eps
		on, _, err := Select(ctx, withCS, Exec{})
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d %s): coreset on: %v", trial, n, k, algo, err)
		}
		if on.CoresetSize <= 0 || on.CoresetSize > on.SkylineSize {
			t.Fatalf("trial %d: implausible CoresetSize %d (skyline %d)", trial, on.CoresetSize, on.SkylineSize)
		}
		if on.SkylineSize != off.SkylineSize {
			t.Fatalf("trial %d: skyline size moved with the coreset knob: %d vs %d",
				trial, on.SkylineSize, off.SkylineSize)
		}
		if len(on.Indices) != len(off.Indices) {
			t.Fatalf("trial %d %s: |set| %d vs %d", trial, algo, len(on.Indices), len(off.Indices))
		}
		// The kernel guarantee: pruning costs at most eps of ARR.
		if on.Metrics.ARR > off.Metrics.ARR+eps {
			t.Fatalf("trial %d %s (n=%d k=%d): coreset ARR %v exceeds unpruned %v by more than eps=%v (candidates %d of %d)",
				trial, algo, n, k, on.Metrics.ARR, off.Metrics.ARR, eps, on.CoresetSize, on.SkylineSize)
		}
	}
}

// randomSubset draws k distinct indices from [0, n) uniformly.
func randomSubset(g *rng.RNG, n, k int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}
