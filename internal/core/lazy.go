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
// serial. The pop-refresh loop is sequential by default — each refresh
// decides whether the next pop happens — which keeps the
// Evaluations/EvalSkipped counters exact.
//
// Batched refresh (LazyBatch > 1): instead of refreshing the single stale
// entry at the queue head, up to LazyBatch stale entries are popped and
// re-evaluated concurrently, betting that the head's refreshed value will
// not stay on top. The selected set is unchanged at any batch size: every
// queue key is a lower bound on its entry's current value (Lemma 2), so
// the loop still terminates exactly when the fresh minimum — the
// lowest-index argmin of the true evaluation values — surfaces. Only the
// work counters move: entries below the head might never have been
// refreshed serially, so Evaluations/EvalSkipped/UserRescans become
// batch-size dependent, tracked by the Speculative* counters.
func lazyShrink(ctx context.Context, in *Instance, k int) ([]int, ShrinkStats, error) {
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
	// heap is built serially from the index-ordered buffer.
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

	// seq invalidates superseded queue entries; epoch marks the iteration
	// an entry's value was computed in (fresh == current iteration).
	seq := make([]int, n)
	pq := make(evalQueue, 0, n)
	for p := 0; p < n; p++ {
		stats.Evaluations++
		pq = append(pq, evalEntry{point: p, val: vals[p], epoch: 0, seq: 0})
	}
	heap.Init(&pq)

	type move struct {
		bi int32
		bv float64
	}
	moves := make([]move, 0, N)
	// The adaptive controller (negative LazyBatch option) sizes the batch
	// from observed behavior: an iteration that needed more than one
	// refresh sweep had queue-head churn a bigger batch would have merged
	// into one parallel round, so the batch doubles; an iteration that
	// resolved in a single sweep while wasting more than half its batch
	// on unused speculation shrinks it. A fixed LazyBatch keeps today's
	// behavior. Any batch trajectory selects the identical set (every
	// queue key is a Lemma 2 lower bound regardless of when it was
	// refreshed), so the controller moves only the work counters.
	adaptive := in.LazyBatchAdaptive()
	lazyB := in.LazyBatch()
	maxB := lazyB
	if adaptive {
		lazyB, maxB = adaptiveStartBatch, adaptiveMaxBatch
	}
	stats.LazyBatch = lazyB
	batch := make([]evalEntry, 0, maxB)
	type refresh struct {
		val     float64
		rescans int
	}
	refreshed := make([]refresh, maxB)
	spec := make([]int, 0, maxB) // points refreshed speculatively this iteration
	for iter := 1; set.count > k; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		stats.CandidateTotal += set.count
		evalsBefore := stats.Evaluations
		chosen := -1
		var chosenVal float64
		spec = spec[:0]
		sweeps := 0 // refresh sweeps this iteration (batches actually refreshed)
		for chosen == -1 {
			// Collect up to lazyB stale entries off the top; a fresh entry
			// ends the sweep early (everything beneath it is ruled out by
			// its lower bound once the collected entries are refreshed).
			batch = batch[:0]
			fresh := evalEntry{point: -1}
			for len(batch) < lazyB && pq.Len() > 0 {
				e := heap.Pop(&pq).(evalEntry)
				if !set.alive[e.point] || e.seq != seq[e.point] {
					continue // superseded or removed
				}
				if e.epoch == iter {
					fresh = e
					break
				}
				batch = append(batch, e)
			}
			if len(batch) == 0 {
				// Fresh value on top: it is the lowest-index argmin
				// (Lemma 3 case 1 — every remaining key is a lower bound
				// at or above it).
				chosen, chosenVal = fresh.point, fresh.val
				break
			}
			sweeps++
			stats.Evaluations += len(batch)
			stats.SpeculativeEvals += len(batch) - 1
			for i := range batch {
				seq[batch[i].point]++
				if i > 0 {
					spec = append(spec, batch[i].point)
				}
			}
			if len(batch) == 1 {
				// The head entry alone: refresh inline, exactly the serial
				// pop-refresh step.
				v, r := evaluate(batch[0].point)
				stats.UserRescans += r
				heap.Push(&pq, evalEntry{point: batch[0].point, val: v, epoch: iter, seq: seq[batch[0].point]})
			} else {
				out := refreshed[:len(batch)]
				ents := batch
				if err := pool.runWide(ctx, len(ents), func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						if ctx.Err() != nil {
							return
						}
						v, r := evaluate(ents[i].point)
						out[i] = refresh{val: v, rescans: r}
					}
				}); err != nil {
					return nil, stats, err
				}
				for i := range ents {
					stats.UserRescans += out[i].rescans
					heap.Push(&pq, evalEntry{point: ents[i].point, val: out[i].val, epoch: iter, seq: seq[ents[i].point]})
				}
			}
			if fresh.point >= 0 {
				heap.Push(&pq, fresh)
			}
		}
		stats.EvalSkipped += set.count - (stats.Evaluations - evalsBefore)
		// Round span: the refresh batches are deterministic (bit-identical
		// heap state at any worker count), so the computed-eval count is a
		// pure function of the instance and the trace shape stays fixed.
		_, round := obs.Start(ctx, "round")
		round.SetAttrInt("iter", stats.Iterations)
		round.SetAttrInt("evals", stats.Evaluations-evalsBefore)
		iterHits, iterWaste := 0, 0
		for _, p := range spec {
			if p == chosen {
				iterHits++
			} else {
				iterWaste++
			}
		}
		stats.SpeculativeHits += iterHits
		stats.SpeculativeWaste += iterWaste
		if adaptive {
			switch {
			case sweeps > 1 && lazyB < adaptiveMaxBatch:
				// Head churn: the refreshed head kept getting displaced,
				// costing serial refresh rounds a bigger batch merges.
				lazyB *= 2
				stats.AdaptiveGrows++
			case sweeps == 1 && iterWaste > lazyB/2 && lazyB > adaptiveMinBatch:
				// Waste spike: resolved on the first sweep but more than
				// half the batch was speculation the iteration never used.
				lazyB /= 2
				stats.AdaptiveShrinks++
			}
			stats.LazyBatch = lazyB
		}

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
		round.End()
	}
	return set.members(), stats, nil
}

// Adaptive LazyBatch controller constants: the batch starts mid-range
// (so both decisions are reachable), doubles on multi-sweep iterations,
// and halves on single-sweep iterations that wasted more than half
// their batch; iterations between the two thresholds hold the size.
const (
	adaptiveStartBatch = 8
	adaptiveMinBatch   = 2
	adaptiveMaxBatch   = 64
)

type evalEntry struct {
	point int
	val   float64
	epoch int // iteration the value was computed in
	seq   int // entry generation; stale generations are discarded
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
