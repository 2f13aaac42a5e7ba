package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
)

// GreedyAdd is the insertion-based greedy: start from the empty set and
// repeatedly add the point that decreases the average regret ratio the
// most. This is the algorithm family of the authors' earlier SIGMOD 2016
// poster and the natural ablation partner of GREEDY-SHRINK: supermodularity
// of arr (Theorem 2) makes the marginal decrease of an addition diminishing
// in the current set, so the classic lazy-greedy acceleration applies —
// stale gains are upper bounds and most candidates are never re-evaluated.
//
// For k ≪ n, GreedyAdd runs k iterations instead of GREEDY-SHRINK's n−k,
// at the price of losing Theorem 3's approximation guarantee (which is
// stated for greedy removal). The ablation6 experiment compares both.
//
// The initial gain sweep over all n candidates and the per-iteration
// best-value refresh over all N users are sharded across the instance's
// worker pool; both are per-item independent, so the run is bit-identical
// to serial at any worker count.
func GreedyAdd(ctx context.Context, in *Instance, k int) ([]int, ShrinkStats, error) {
	if in == nil {
		return nil, ShrinkStats{}, errors.New("core: nil instance")
	}
	n, N := in.NumPoints(), in.NumFuncs()
	if k <= 0 || k > n {
		return nil, ShrinkStats{}, fmt.Errorf("%w: k=%d n=%d", ErrBadK, k, n)
	}
	var stats ShrinkStats
	pool := newEvalPool(in, &stats)

	// bestVal[u] = user u's best utility within the selected set.
	bestVal := make([]float64, N)
	inSet := make([]bool, n)

	// The gain loop reads one point's utility across all users — a
	// stride-n column walk through the user-major matrix. The transient
	// point-major transpose turns every gain evaluation into a contiguous
	// pass; values are identical to element-wise access (float32 storage
	// rounds identically on both paths), so selections are unchanged. Nil
	// when the matrix is not materialized — then utilities are recomputed
	// on demand either way.
	tp := in.Transposed()

	// gain(p) = Σ_u w_u · max(0, f_u(p) − bestVal[u]) / satD[u]: the
	// (unnormalized) drop in arr from adding p.
	gain := func(p int) float64 {
		var g float64
		if tp != nil {
			col := tp.Col(p)
			for u := 0; u < N; u++ {
				if in.satD[u] <= 0 {
					continue
				}
				if v := col[u]; v > bestVal[u] {
					g += in.Weight(u) * (v - bestVal[u]) / in.satD[u]
				}
			}
			return g
		}
		for u := 0; u < N; u++ {
			if in.satD[u] <= 0 {
				continue
			}
			if v := in.Utility(u, p); v > bestVal[u] {
				g += in.Weight(u) * (v - bestVal[u]) / in.satD[u]
			}
		}
		return g
	}

	// Initial gains, computed in parallel and heapified in index order.
	gains := make([]float64, n)
	if err := pool.run(ctx, n, func(w, lo, hi int) {
		for p := lo; p < hi; p++ {
			if ctx.Err() != nil {
				return
			}
			gains[p] = gain(p)
		}
	}); err != nil {
		return nil, stats, err
	}
	seq := make([]int, n)
	pq := make(gainQueue, 0, n)
	for p := 0; p < n; p++ {
		stats.Evaluations++
		pq = append(pq, gainEntry{point: p, gain: gains[p], epoch: 0, seq: 0})
	}
	heap.Init(&pq)

	improved := make([]int, pool.workers)
	var selected []int
	for iter := 1; len(selected) < k; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		stats.CandidateTotal += n - len(selected)
		evalsBefore := stats.Evaluations
		chosen := -1
		for {
			e := heap.Pop(&pq).(gainEntry)
			if inSet[e.point] || e.seq != seq[e.point] {
				continue
			}
			if e.epoch == iter {
				chosen = e.point
				break
			}
			// Stale upper bound on top: refresh (diminishing returns make
			// old gains upper bounds, mirroring Lemma 2 on the add side).
			stats.Evaluations++
			seq[e.point]++
			heap.Push(&pq, gainEntry{point: e.point, gain: gain(e.point), epoch: iter, seq: seq[e.point]})
		}
		stats.EvalSkipped += (n - len(selected)) - (stats.Evaluations - evalsBefore)

		inSet[chosen] = true
		selected = append(selected, chosen)
		// Refresh every user's in-set best value; each user's slot is
		// written only by its own shard, so this is race-free and order-
		// independent (plain assignments, no accumulation).
		for w := range improved {
			improved[w] = 0
		}
		var chosenCol []float64
		if tp != nil {
			chosenCol = tp.Col(chosen)
		}
		if err := pool.run(ctx, N, func(w, lo, hi int) {
			for u := lo; u < hi; u++ {
				if ctx.Err() != nil {
					return
				}
				if in.satD[u] <= 0 {
					continue
				}
				v := 0.0
				if chosenCol != nil {
					v = chosenCol[u]
				} else {
					v = in.Utility(u, chosen)
				}
				if v > bestVal[u] {
					bestVal[u] = v
					improved[w]++
				}
			}
		}); err != nil {
			return nil, stats, err
		}
		for _, c := range improved {
			stats.UserRescans += c
		}
	}
	sort.Ints(selected)
	return selected, stats, nil
}

type gainEntry struct {
	point int
	gain  float64
	epoch int
	seq   int
}

// gainQueue is a max-heap on (gain, -point): larger gains first, ties to
// the lower point index for determinism.
type gainQueue []gainEntry

func (q gainQueue) Len() int { return len(q) }
func (q gainQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].point < q[j].point
}
func (q gainQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *gainQueue) Push(x interface{}) { *q = append(*q, x.(gainEntry)) }
func (q *gainQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}
