package core

import (
	"context"
	"errors"
	"fmt"
	"unsafe"
)

// Trajectory is one GREEDY-SHRINK run recorded down to |S| = 1: the
// order in which the points were removed and the run's cumulative work
// counters after every removal. Algorithm 1 removes one point per
// iteration and no iteration depends on the target k, so the sets a run
// passes through are nested and the run to any k is a prefix of the run
// to 1. At answers every k from one recording, bit-identical to
// GreedyShrink on the instance it was recorded on.
//
// A Trajectory is immutable once built and safe for concurrent use.
type Trajectory struct {
	strategy Strategy
	workers  int
	removed  []int32      // removal order: n-1 points
	steps    []shrinkStep // counters after i removals, i = 0..n-1
}

// shrinkStep holds the ShrinkStats counters that are not a function of
// the iteration count alone, as they stood after one iteration.
type shrinkStep struct {
	evaluations, evalSkipped, userRescans int
	parallelBatches, serialBatches        int
}

// ShrinkTrajectory runs Algorithm 1 with the given strategy down to a
// single point and records the run. Its loops are GreedyShrink's: the
// recording only appends each iteration's removed point and counters.
// The context is checked once per removal iteration; a canceled run
// returns the context's error and no trajectory.
func ShrinkTrajectory(ctx context.Context, in *Instance, strategy Strategy) (*Trajectory, error) {
	if in == nil {
		return nil, errors.New("core: nil instance")
	}
	n := in.NumPoints()
	rec := &Trajectory{
		strategy: strategy,
		removed:  make([]int32, 0, max(n-1, 0)),
		steps:    make([]shrinkStep, 0, n),
	}
	_, stats, err := shrink(ctx, in, 1, strategy, rec)
	if err != nil {
		return nil, err
	}
	rec.workers = stats.Workers
	return rec, nil
}

// record appends the state after one iteration (before the first when
// chosen is negative). A nil receiver records nothing, so the loops call
// it unconditionally.
func (t *Trajectory) record(chosen int, st *ShrinkStats) {
	if t == nil {
		return
	}
	if chosen >= 0 {
		t.removed = append(t.removed, int32(chosen))
	}
	t.steps = append(t.steps, shrinkStep{
		evaluations:     st.Evaluations,
		evalSkipped:     st.EvalSkipped,
		userRescans:     st.UserRescans,
		parallelBatches: st.ParallelBatches,
		serialBatches:   st.SerialBatches,
	})
}

// At returns exactly what GreedyShrink(ctx, in, k, strategy) returns on
// the instance the trajectory was recorded on (or a WithExecution clone
// of it): the selected points in ascending order and the run's stats.
// It costs one O(n) pass.
func (t *Trajectory) At(in *Instance, k int) ([]int, ShrinkStats, error) {
	if in == nil {
		return nil, ShrinkStats{}, errors.New("core: nil instance")
	}
	n := len(t.steps)
	if in.NumPoints() != n {
		return nil, ShrinkStats{}, fmt.Errorf("core: trajectory of %d points applied to an instance of %d", n, in.NumPoints())
	}
	if k <= 0 || k > n {
		return nil, ShrinkStats{}, fmt.Errorf("%w: k=%d n=%d", ErrBadK, k, n)
	}
	i := n - k
	gone := make([]bool, n)
	for _, p := range t.removed[:i] {
		gone[p] = true
	}
	set := make([]int, 0, k)
	for p, g := range gone {
		if !g {
			set = append(set, p)
		}
	}
	s := t.steps[i]
	stats := ShrinkStats{
		Iterations:      i,
		Evaluations:     s.evaluations,
		EvalSkipped:     s.evalSkipped,
		UserRescans:     s.userRescans,
		Strategy:        t.strategy,
		CandidateTotal:  i*n - i*(i-1)/2, // iteration j saw n-j+1 candidates
		Workers:         t.workers,
		ParallelBatches: s.parallelBatches,
		SerialBatches:   s.serialBatches,
	}
	return set, stats, nil
}

// MemoryFootprint returns the exact resident bytes of the trajectory:
// its header and the backing arrays of the removal order and the
// per-iteration counters.
func (t *Trajectory) MemoryFootprint() int64 {
	return int64(unsafe.Sizeof(*t)) +
		int64(cap(t.removed))*int64(unsafe.Sizeof(int32(0))) +
		int64(cap(t.steps))*int64(unsafe.Sizeof(shrinkStep{}))
}
