package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/regretlab/fam/internal/obs"
)

// Strategy selects the GREEDY-SHRINK implementation. All strategies run
// Algorithm 1 — start from the whole database and repeatedly remove the
// point whose removal increases the average regret ratio the least — and
// produce identical solutions; they differ only in how the per-candidate
// evaluation values arr(S−{p}) are obtained.
type Strategy int

const (
	// StrategyDelta tracks each user's best and second-best point in the
	// current set, making every evaluation value available from per-point
	// accumulators in O(1). This is the default and the fastest variant.
	StrategyDelta Strategy = iota
	// StrategyLazy is the paper-faithful variant: Improvement 1 (per-user
	// best-point caching so only users whose best point is the removed
	// point are re-evaluated) plus Improvement 2 (previous-iteration
	// evaluation values kept as lower bounds in a priority queue —
	// Lemmas 2 and 3 — so most candidates are never re-evaluated).
	StrategyLazy
	// StrategyNaive recomputes arr(S−{p}) from scratch for every candidate
	// in every iteration — the paper's "straightforward implementation"
	// reference point. Only viable on small instances.
	StrategyNaive
)

func (s Strategy) String() string {
	switch s {
	case StrategyDelta:
		return "delta"
	case StrategyLazy:
		return "lazy"
	case StrategyNaive:
		return "naive"
	default:
		return fmt.Sprintf("core.Strategy(%d)", int(s))
	}
}

// ShrinkStats reports the work GREEDY-SHRINK performed; the lazy-variant
// counters mirror the paper's observation that only ≈1% of users and ≈68%
// of candidate points need reprocessing per iteration. The worker
// counters describe the parallel query engine's behavior: how many
// evaluation batches were sharded across workers and how many were too
// small to pay for goroutine dispatch (the contention guard) and ran
// inline. Work counters (Evaluations, UserRescans, …) and the selected
// set are identical at every worker count; only the batch counters
// depend on Workers.
type ShrinkStats struct {
	Iterations     int // points removed (n - k)
	Evaluations    int // arr(S−{p}) evaluations actually computed
	EvalSkipped    int // candidate evaluations avoided by lower bounds
	UserRescans    int // users whose best/second point was recomputed
	Strategy       Strategy
	CandidateTotal int // total candidate evaluations a naive run would do

	Workers         int // worker goroutines available to the query phase (1 = serial)
	ParallelBatches int // evaluation batches sharded across workers
	SerialBatches   int // batches run inline to avoid dispatch contention
}

// ErrBadK is returned when k is out of (0, n].
var ErrBadK = errors.New("core: k must satisfy 0 < k <= n")

// GreedyShrink runs Algorithm 1 with the given strategy and returns the
// selected point indices in ascending order. The context is checked once
// per removal iteration, so cancellation latency is one iteration.
func GreedyShrink(ctx context.Context, in *Instance, k int, strategy Strategy) ([]int, ShrinkStats, error) {
	if in == nil {
		return nil, ShrinkStats{}, errors.New("core: nil instance")
	}
	n := in.NumPoints()
	if k <= 0 || k > n {
		return nil, ShrinkStats{}, fmt.Errorf("%w: k=%d n=%d", ErrBadK, k, n)
	}
	set, stats, err := shrink(ctx, in, k, strategy, nil)
	if err != nil {
		return nil, stats, err
	}
	sort.Ints(set)
	return set, stats, nil
}

// shrink runs the strategy's removal loop down to |S| = k under a
// "shrink" span, appending every iteration to rec when it is non-nil.
func shrink(ctx context.Context, in *Instance, k int, strategy Strategy, rec *Trajectory) ([]int, ShrinkStats, error) {
	ctx, span := obs.Start(ctx, "shrink")
	span.SetAttr("strategy", strategy.String())
	span.SetAttrInt("n", in.NumPoints())
	span.SetAttrInt("k", k)
	if rec != nil {
		span.SetAttrBool("record", true)
	}
	defer span.End()
	var (
		set   []int
		stats ShrinkStats
		err   error
	)
	switch strategy {
	case StrategyDelta:
		set, stats, err = deltaShrink(ctx, in, k, rec)
	case StrategyLazy:
		set, stats, err = lazyShrink(ctx, in, k, rec)
	case StrategyNaive:
		set, stats, err = naiveShrink(ctx, in, k, rec)
	default:
		return nil, ShrinkStats{}, fmt.Errorf("core: unknown strategy %d", int(strategy))
	}
	stats.Strategy = strategy
	return set, stats, err
}

// aliveSet is the shared mutable selection-set representation: the
// alive bitmap for O(1) membership tests plus a compacted ascending
// index list so candidate scans visit only alive points — iterating the
// list reproduces the historical "skip dead points" scans exactly (same
// ascending visit order) without touching the n−|S| dead entries.
type aliveSet struct {
	alive []bool
	list  []int32 // alive indices, ascending
	count int
}

func newAliveSet(n int) *aliveSet {
	a := &aliveSet{alive: make([]bool, n), list: make([]int32, n), count: n}
	for i := range a.alive {
		a.alive[i] = true
		a.list[i] = int32(i)
	}
	return a
}

func (a *aliveSet) remove(p int) {
	if !a.alive[p] {
		return
	}
	a.alive[p] = false
	a.count--
	i := sort.Search(len(a.list), func(i int) bool { return a.list[i] >= int32(p) })
	a.list = append(a.list[:i], a.list[i+1:]...)
}

func (a *aliveSet) members() []int {
	out := make([]int, len(a.list))
	for i, p := range a.list {
		out[i] = int(p)
	}
	return out
}
