package core

import (
	"context"

	"github.com/regretlab/fam/internal/par"
)

// Parallelism returns the worker bound configured for this instance:
// the effective goroutine count used by preprocessing and by every
// solver's query-phase evaluation (1 means serial).
func (in *Instance) Parallelism() int {
	return par.Workers(in.par, 1<<30)
}

// SetParallelism changes the instance's worker bound (0 = all CPUs,
// 1 = serial). Solver output is bit-identical at any setting, so this is
// safe to vary between runs on a shared instance; it must not be called
// concurrently with a running solver.
func (in *Instance) SetParallelism(p int) { in.par = p }

// Pool returns the externally owned worker pool the instance dispatches
// on (nil = spawn goroutines per call).
func (in *Instance) Pool() *par.Pool { return in.pool }

// WithExecution returns a shallow clone of the instance with different
// execution knobs: worker bound and worker pool. The clone shares every
// preprocessing artifact (points, utility functions, the materialized
// utility matrix, best-point indexes) with the receiver — an Instance
// is immutable after construction, so a serving engine can cache one
// preprocessed Instance per dataset and hand each concurrent query its
// own clone with per-request settings at zero copy cost.
func (in *Instance) WithExecution(parallelism int, pool *par.Pool) *Instance {
	cp := *in
	cp.par = parallelism
	cp.pool = pool
	return &cp
}

// evalPool shards the query phase's independent per-item evaluations
// (candidates or users) across the instance's worker bound and keeps the
// worker/contention counters reported in ShrinkStats. The zero batch
// count distinguishes "solver ran serially" from "pool never used".
type evalPool struct {
	workers int
	stats   *ShrinkStats
	pool    *par.Pool
}

// newEvalPool derives the solver's pool from the instance. The stats
// pointer may be nil for solvers that report no counters (BruteForce).
func newEvalPool(in *Instance, stats *ShrinkStats) *evalPool {
	p := &evalPool{workers: in.Parallelism(), stats: stats, pool: in.pool}
	if stats != nil {
		stats.Workers = p.workers
	}
	return p
}

// run executes fn over contiguous shards of [0, n). As batches shrink,
// workers are shed (par.Bounded's grain) rather than jumping straight to
// serial, and batches too small for any fan-out run inline; both outcomes
// are counted. fn must poll ctx per item (every caller in this package
// does) so that cancellation inside the pool is prompt; run reports the
// context error after the join.
func (e *evalPool) run(ctx context.Context, n int, fn func(w, lo, hi int)) error {
	return e.dispatch(ctx, par.Bounded(e.workers, n), n, fn)
}

// runWide is run without the grain bound, for batches whose items are
// individually expensive (a full candidate evaluation) and pay for
// fan-out even when there are only a handful of them.
func (e *evalPool) runWide(ctx context.Context, n int, fn func(w, lo, hi int)) error {
	return e.dispatch(ctx, par.Workers(e.workers, n), n, fn)
}

func (e *evalPool) dispatch(ctx context.Context, workers, n int, fn func(w, lo, hi int)) error {
	if n <= 0 {
		// Nothing to evaluate; not a batch — keep the counters honest.
		return ctx.Err()
	}
	if e.stats != nil {
		if workers > 1 {
			e.stats.ParallelBatches++
		} else {
			e.stats.SerialBatches++
		}
	}
	// A nil pool spawns per-call goroutines (one-shot Select); a shared
	// pool multiplexes the same blocks over long-lived helpers, granted
	// per the scheduling attrs on ctx.
	return e.pool.Shards(ctx, workers, n, fn)
}
