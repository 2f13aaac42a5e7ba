package core

import (
	"context"

	"github.com/regretlab/fam/internal/obs"
)

// naiveShrink is the straightforward implementation of Algorithm 1: every
// iteration evaluates arr(S−{p}) from scratch for every candidate p ∈ S.
// One iteration costs O(|S|² · N) utility evaluations; the paper reports
// this baseline needing 50+ hours to pick 5 of 100 points at N = 10,000.
// It exists as the correctness reference and the ablation baseline.
//
// The candidate evaluations are independent, so each iteration fans them
// out across the instance's worker pool; the argmin reduction scans the
// evaluation buffer in index order with a strict comparison, which keeps
// the selection identical to the serial lowest-index tie-break.
func naiveShrink(ctx context.Context, in *Instance, k int, rec *Trajectory) ([]int, ShrinkStats, error) {
	n, N := in.NumPoints(), in.NumFuncs()
	var stats ShrinkStats
	pool := newEvalPool(in, &stats)
	set := newAliveSet(n)

	// arrWithout computes the unnormalized arr of S−{p} by full scans of
	// the compacted alive list (same ascending visit order as the
	// historical full-array scan; accumulation stays in user order). In
	// the first iteration the list holds every point, over which the
	// kernel's RowMaxExcl reads the user's whole contiguous row, in the
	// vector unit on CPUs with AVX.
	arrWithout := func(excl int) float64 {
		var sum float64
		for u := 0; u < N; u++ {
			if in.satD[u] <= 0 {
				continue
			}
			_, bv := in.rowMaxExcl(u, set.list, int32(excl))
			if bv < 0 {
				bv = 0
			}
			sum += in.Weight(u) * (in.satD[u] - bv) / in.satD[u]
		}
		return sum
	}

	vals := make([]float64, n)
	rec.record(-1, &stats)
	for set.count > k {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		stats.CandidateTotal += set.count
		stats.Evaluations += set.count
		_, round := obs.Start(ctx, "round")
		round.SetAttrInt("iter", stats.Iterations)
		round.SetAttrInt("evals", set.count)
		// Each candidate costs a full O(|S|·N) scan, so fan out even for
		// small candidate sets (no grain bound). Sharding the alive list
		// instead of [0, n) skips dead candidates entirely; each vals[p]
		// is an independent pure function of the set, so shard boundaries
		// cannot change any value.
		alive := set.list
		if err := pool.runWide(ctx, len(alive), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				p := int(alive[i])
				vals[p] = arrWithout(p)
			}
		}); err != nil {
			return nil, stats, err
		}
		chosen := -1
		for _, p32 := range alive {
			if p := int(p32); chosen == -1 || vals[p] < vals[chosen] {
				chosen = p
			}
		}
		set.remove(chosen)
		rec.record(chosen, &stats)
		round.End()
	}
	return set.members(), stats, nil
}
