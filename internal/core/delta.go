package core

import (
	"context"

	"github.com/regretlab/fam/internal/obs"
)

// deltaShrink implements GREEDY-SHRINK with best- and second-best-point
// tracking. For every user the algorithm maintains the best and second-best
// point of the current set S; the evaluation value of removing p decomposes
// as
//
//	arr(S−{p}) = arr(S) + Σ_{u: best(u)=p} (f_u(best) − f_u(second)) / satD(u) / N,
//
// so all candidate evaluations are available from one accumulator array
// rc[p] that is maintained incrementally: a user's contribution moves only
// when their best or second-best point is removed. The argmin of rc is
// kept by a tournament tree (minTree), so each iteration is O(log|S|) to
// pick the argmin and O(log|S|) per rc write, plus O(|S|) per affected
// user to rescan; the paper observes only ≈1% of users are affected per
// iteration.
//
// Parallelism: the per-user scans (initialization and the per-iteration
// rescans) are pure reads of the utility matrix and the alive set, so they
// are sharded across the worker pool into position-indexed buffers; the
// accumulator updates they feed are then applied serially in the original
// user order. Floating-point accumulation order is therefore identical to
// the serial run, keeping rc — and every selection — bit-identical at any
// worker count.
func deltaShrink(ctx context.Context, in *Instance, k int) ([]int, ShrinkStats, error) {
	n, N := in.NumPoints(), in.NumFuncs()
	var stats ShrinkStats
	pool := newEvalPool(in, &stats)
	set := newAliveSet(n)

	best := make([]int32, N)
	second := make([]int32, N)
	bestVal := make([]float64, N)
	secondVal := make([]float64, N)
	rc := make([]float64, n)
	usersByBest := make([][]int32, n)
	usersBySecond := make([][]int32, n)

	// twoMax finds the best (first index wins ties) and second-best alive
	// points for user u via the kernel's contiguous row scan over the
	// compacted alive list — same ascending visit order as the historical
	// full-array scan, without touching dead points. Returns sentinel -1
	// indices when unavailable.
	twoMax := func(u int) (b1 int32, v1 float64, b2 int32, v2 float64) {
		b1, v1, b2, v2 = in.rowTwoMax(u, set.list)
		if v1 < 0 {
			v1 = 0
		}
		if v2 < 0 {
			v2 = 0
		}
		return
	}

	// secondMax finds the best alive point for user u excluding the
	// point `excl`.
	secondMax := func(u int, excl int32) (int32, float64) {
		idx, val := in.rowMaxExcl(u, set.list, excl)
		if val < 0 {
			val = 0
		}
		return idx, val
	}

	// pairBuf holds parallel-computed (best, second) pairs, indexed by the
	// position of the user in the batch being rescanned.
	type pair struct {
		b1, b2 int32
		v1, v2 float64
	}
	pairs := make([]pair, 0, N)

	// Initialization: one full scan per user, computed in parallel and
	// accumulated serially in user order. Contributions are scaled by the
	// user's probability mass so weighted (Appendix A) instances are
	// optimized exactly.
	pairs = pairs[:N]
	if err := pool.run(ctx, N, func(w, lo, hi int) {
		for u := lo; u < hi; u++ {
			if ctx.Err() != nil {
				return
			}
			if in.satD[u] <= 0 {
				continue
			}
			b1, v1, b2, v2 := twoMax(u)
			pairs[u] = pair{b1: b1, b2: b2, v1: v1, v2: v2}
		}
	}); err != nil {
		return nil, stats, err
	}
	for u := 0; u < N; u++ {
		if in.satD[u] <= 0 {
			best[u], second[u] = -1, -1
			continue
		}
		p := pairs[u]
		best[u], bestVal[u] = p.b1, p.v1
		second[u], secondVal[u] = p.b2, p.v2
		rc[p.b1] += in.Weight(u) * (p.v1 - p.v2) / in.satD[u]
		usersByBest[p.b1] = append(usersByBest[p.b1], int32(u))
		if p.b2 >= 0 {
			usersBySecond[p.b2] = append(usersBySecond[p.b2], int32(u))
		}
	}

	argmin := newMinTree(rc)
	rescan := make([]int32, 0, N) // users needing a second-best refresh
	for set.count > k {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		stats.CandidateTotal += set.count
		// The argmin of rc over the alive points is the point whose
		// removal increases arr the least; every candidate's evaluation is
		// already available, so all of them count as evaluated.
		stats.Evaluations += set.count
		// Round span: eval count is a pure function of the instance
		// (set.count is worker-independent), keeping the trace shape
		// deterministic at any worker count.
		_, round := obs.Start(ctx, "round")
		round.SetAttrInt("iter", stats.Iterations)
		round.SetAttrInt("evals", set.count)
		chosen := argmin.argmin()
		set.remove(chosen)
		argmin.kill(chosen)

		// Users whose best point was removed: promote their second-best,
		// rescan for a fresh pair, and move their rc contribution. The
		// rescans only read alive/utility state, so they run in parallel;
		// the rc and index-list updates are applied serially in list order.
		affected := usersByBest[chosen]
		stats.UserRescans += len(affected)
		pairs = pairs[:len(affected)]
		if err := pool.run(ctx, len(affected), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				b1, v1, b2, v2 := twoMax(int(affected[i]))
				pairs[i] = pair{b1: b1, b2: b2, v1: v1, v2: v2}
			}
		}); err != nil {
			return nil, stats, err
		}
		for i, u := range affected {
			p := pairs[i]
			best[u], bestVal[u] = p.b1, p.v1
			second[u], secondVal[u] = p.b2, p.v2
			if p.b1 >= 0 {
				rc[p.b1] += in.Weight(int(u)) * (p.v1 - p.v2) / in.satD[u]
				argmin.fix(int(p.b1))
				usersByBest[p.b1] = append(usersByBest[p.b1], u)
				if p.b2 >= 0 {
					usersBySecond[p.b2] = append(usersBySecond[p.b2], u)
				}
			}
		}

		// Users whose second-best point was removed (best unchanged):
		// their removal cost for the best point grows. The queue may hold
		// stale or duplicate entries; serially, processing a user updates
		// second[u] so later duplicates fail the filter — keeping only the
		// first passing occurrence reproduces that exactly.
		rescan = rescan[:0]
		for _, u := range usersBySecond[chosen] {
			if best[u] == int32(chosen) || second[u] != int32(chosen) {
				continue // handled above, or a stale queue entry
			}
			second[u] = -2 // mark claimed so duplicates are skipped
			rescan = append(rescan, u)
		}
		stats.UserRescans += len(rescan)
		pairs = pairs[:len(rescan)]
		if err := pool.run(ctx, len(rescan), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				u := rescan[i]
				b2, v2 := secondMax(int(u), best[u])
				pairs[i] = pair{b2: b2, v2: v2}
			}
		}); err != nil {
			return nil, stats, err
		}
		for i, u := range rescan {
			p := pairs[i]
			oldV2 := secondVal[u]
			second[u], secondVal[u] = p.b2, p.v2
			rc[best[u]] += in.Weight(int(u)) * (oldV2 - p.v2) / in.satD[u]
			argmin.fix(int(best[u]))
			if p.b2 >= 0 {
				usersBySecond[p.b2] = append(usersBySecond[p.b2], u)
			}
		}
		usersByBest[chosen] = nil
		usersBySecond[chosen] = nil
		round.End()
	}
	return set.members(), stats, nil
}
