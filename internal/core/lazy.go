package core

import (
	"container/heap"
	"context"

	"github.com/regretlab/fam/internal/obs"
)

// lazyShrink is the paper-faithful GREEDY-SHRINK of Section III-C and
// Appendix C.
//
// Improvement 1 (best-point calculation): each user's best point within the
// current set S is cached; evaluating arr(S−{p}) only touches the users
// whose cached best point is p (for everyone else the satisfaction is
// unchanged), and each touched user rescans S−{p} once. The cache starts
// from the preprocessing best points (Instance.bestD), since S = D
// before the first removal.
//
// Improvement 2 (computation based on the previous iteration): evaluation
// values computed in earlier iterations are kept in a min-priority queue.
// By supermodularity they are lower bounds on the current values (Lemma 2),
// so the true argmin is found by popping the queue and refreshing entries
// until a fresh entry surfaces (Lemma 3); candidates whose stale lower
// bound never reaches the top are skipped entirely.
//
// Parallelism: the initial n candidate evaluations and the per-iteration
// best-point rescans are independent reads, so they are sharded across
// the worker pool; their mutations (heap construction, best-point moves)
// are applied serially in index order, keeping the run bit-identical to
// serial. The pop-refresh loop itself is sequential — each refresh
// decides whether the next pop happens — which keeps the
// Evaluations/EvalSkipped counters exact.
func lazyShrink(ctx context.Context, in *Instance, k int, rec *Trajectory) ([]int, ShrinkStats, error) {
	n, N := in.NumPoints(), in.NumFuncs()
	var stats ShrinkStats
	pool := newEvalPool(in, &stats)
	set := newAliveSet(n)

	best := make([]int32, N)
	bestVal := make([]float64, N)
	usersByBest := make([][]int32, n)
	var arrSum float64 // Σ_u rr(S,u), unnormalized by N; arr(D) = 0

	// S starts as the whole database, so each user's best point in S is
	// the one preprocessing already found (Section III-D2): the same
	// ascending visit order, strict > rule and stored values as rowMax
	// over the full alive list, without a second N×n pass.
	for u := 0; u < N; u++ {
		best[u], bestVal[u] = in.bestD[u], in.satD[u]
		if bi := best[u]; bi >= 0 {
			usersByBest[bi] = append(usersByBest[bi], int32(u))
		}
	}

	// evaluate returns the unnormalized arr of S−{p} and the number of
	// user rescans it performed: only users whose best point is p change
	// satisfaction (Improvement 1). Pure reads — safe to run for several
	// candidates concurrently.
	evaluate := func(p int) (float64, int) {
		v := arrSum
		rescans := 0
		for _, u := range usersByBest[p] {
			rescans++
			_, nv := in.rowMaxExcl(int(u), set.list, int32(p))
			if nv < 0 {
				nv = 0
			}
			v += in.Weight(int(u)) * (bestVal[u] - nv) / in.satD[u]
		}
		return v, rescans
	}

	// Initial evaluation of every candidate, sharded across workers; the
	// heap is built serially from the index-ordered buffer. With S = D
	// each rescan, and each refresh of the first iteration, passes the
	// identity list, over which the kernel's RowMaxExcl reads the user's
	// whole contiguous row, in the vector unit on CPUs with AVX.
	vals := make([]float64, n)
	rescanCount := make([]int, pool.workers)
	if err := pool.run(ctx, n, func(w, lo, hi int) {
		for p := lo; p < hi; p++ {
			if ctx.Err() != nil {
				return
			}
			v, r := evaluate(p)
			vals[p] = v
			rescanCount[w] += r
		}
	}); err != nil {
		return nil, stats, err
	}
	for _, r := range rescanCount {
		stats.UserRescans += r
	}

	pq := make(evalQueue, n)
	for p := range pq {
		pq[p] = evalEntry{point: p, val: vals[p]}
	}
	stats.Evaluations += n
	heap.Init(&pq)
	rec.record(-1, &stats)

	type move struct {
		bi int32
		bv float64
	}
	moves := make([]move, 0, N)
	for iter := 1; set.count > k; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		stats.CandidateTotal += set.count
		evalsBefore := stats.Evaluations
		// The queue holds exactly one entry per alive point: it starts
		// with one per point, a refresh updates the head in place, and the
		// chosen point's entry is popped and never pushed back. So the
		// head is always a live candidate. A stale head is refreshed in
		// place and sifted down; a fresh head is the lowest-index argmin
		// (Lemma 3 case 1 — every other key is a lower bound at or above
		// it).
		for pq[0].epoch != iter {
			v, r := evaluate(pq[0].point)
			stats.Evaluations++
			stats.UserRescans += r
			pq[0].val, pq[0].epoch = v, iter
			heap.Fix(&pq, 0)
		}
		chosen, chosenVal := pq[0].point, pq[0].val
		pq.popHead()
		stats.EvalSkipped += set.count - (stats.Evaluations - evalsBefore)
		// Round span: the refresh sequence is deterministic (bit-identical
		// heap state at any worker count), so the computed-eval count is a
		// pure function of the instance and the trace shape stays fixed.
		_, round := obs.Start(ctx, "round")
		round.SetAttrInt("iter", stats.Iterations)
		round.SetAttrInt("evals", stats.Evaluations-evalsBefore)

		set.remove(chosen)
		arrSum = chosenVal
		// Refresh the best point of every user who lost theirs: parallel
		// scans into a position-indexed buffer, serial application.
		affected := usersByBest[chosen]
		stats.UserRescans += len(affected)
		moves = moves[:len(affected)]
		if err := pool.run(ctx, len(affected), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				u := affected[i]
				bi, bv := in.rowMax(int(u), set.list)
				if bv < 0 {
					bv = 0
				}
				moves[i] = move{bi: bi, bv: bv}
			}
		}); err != nil {
			return nil, stats, err
		}
		for i, u := range affected {
			best[u], bestVal[u] = moves[i].bi, moves[i].bv
			if moves[i].bi >= 0 {
				usersByBest[moves[i].bi] = append(usersByBest[moves[i].bi], u)
			}
		}
		usersByBest[chosen] = nil
		rec.record(chosen, &stats)
		round.End()
	}
	return set.members(), stats, nil
}

type evalEntry struct {
	point int
	val   float64
	epoch int // iteration the value was computed in
}

// evalQueue is a min-heap on (val, point); the point tiebreak keeps the
// lazy strategy's selections identical to the other strategies.
type evalQueue []evalEntry

func (q evalQueue) Len() int { return len(q) }
func (q evalQueue) Less(i, j int) bool {
	if q[i].val != q[j].val {
		return q[i].val < q[j].val
	}
	return q[i].point < q[j].point
}
func (q evalQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *evalQueue) Push(x interface{}) { *q = append(*q, x.(evalEntry)) }
func (q *evalQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// popHead removes the root in place — the last entry moves to the root
// and sifts down — leaving the heap heap.Pop would leave without boxing
// the popped entry in an interface.
func (q *evalQueue) popHead() {
	old := *q
	n := len(old) - 1
	old[0] = old[n]
	*q = old[:n]
	if n > 1 {
		heap.Fix(q, 0)
	}
}
