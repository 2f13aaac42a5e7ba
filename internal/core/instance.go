// Package core implements the paper's contribution: the sampled
// average-regret-ratio evaluator (Section III-C, Equation 1) and the
// GREEDY-SHRINK algorithm (Algorithm 1) in three interchangeable
// strategies — the naive recomputation baseline, the paper-faithful lazy
// variant with Improvements 1 and 2 (Appendix C), and a delta variant that
// additionally tracks each user's second-best point. A brute-force exact
// solver for small instances and the steepness-based approximation bound
// (Theorem 3) round out the package.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/regretlab/fam/internal/kernel"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/point"
	"github.com/regretlab/fam/internal/utility"
)

// Instance binds a point set to N sampled utility functions and owns the
// preprocessing state of Section III-D2: each user's satisfaction over the
// full database (satD) and best point in the database. Building an
// Instance is the paper's "preprocessing time"; everything that runs on a
// built Instance counts as "query time".
type Instance struct {
	Points [][]float64
	Funcs  []utility.Func

	satD  []float64 // satD[u] = max_p f_u(p); 0 for degenerate users
	bestD []int32   // argmax, -1 for degenerate users
	degen int       // number of users with satD <= 0 (their rr is defined 0)

	wt     []float64 // per-user probability mass; nil = uniform
	totalW float64   // Σ wt, or N when uniform

	mat       *kernel.Matrix // optional N x n utility matrix (user-major)
	cacheUsed bool
	f32       bool // float32 storage mode: utilities round through float32

	par  int       // requested worker bound for preprocessing and query (0 = all CPUs)
	pool *par.Pool // externally owned worker pool; nil spawns per-call goroutines
}

// Options configures instance construction.
type Options struct {
	// CacheBudget is the maximum number of float64 utility entries
	// (N × n) the instance may precompute. Below the budget, all utilities
	// are materialized once (O(Nn) space, O(1) lookups); above it they are
	// recomputed on demand (O(d) per lookup), the trade-off of Section
	// III-D3. Zero applies DefaultCacheBudget; negative disables caching.
	// The budget counts entries, not bytes: Float32 mode halves the bytes
	// per entry but not the entry count.
	CacheBudget int64
	// Float32 stores the materialized utility matrix as float32, halving
	// resident bytes at the cost of ~7 decimal digits. Every utility the
	// solvers observe is rounded through float32 — including the uncached
	// recompute path, so results are independent of the cache budget —
	// which makes runs bit-deterministic within the mode but numerically
	// different from float64 runs (ARR differences are bounded by the
	// rounding, ~1e-7 relative).
	Float32 bool
	// Weights assigns a probability mass to each utility function
	// (Appendix A: for a countably finite F the average regret ratio is
	// the exact weighted sum Σ rr(S,f)·η(f), no sampling needed). Nil
	// means uniform. Length must equal the number of functions; entries
	// must be non-negative and finite with a positive total.
	Weights []float64
	// Parallelism bounds the worker goroutines used for preprocessing
	// (utility materialization and best-point indexing) and for the
	// query-phase candidate evaluations of every solver that takes this
	// instance. Per-item work is independent and all reductions break
	// ties to the lowest index, so results are bit-identical at any
	// setting. Zero uses GOMAXPROCS; one forces serial execution.
	Parallelism int
	// Pool is an externally owned worker pool (par.NewPool) shared with
	// other concurrent queries of a long-lived serving process. When set,
	// preprocessing and every solver's query-phase fan-out runs on the
	// pool's helpers (plus the calling goroutine) instead of spawning
	// fresh goroutines per call; Parallelism still bounds the shard count
	// of each fan-out, so results remain bit-identical with or without a
	// pool. Nil keeps the one-shot spawn-per-call behavior.
	// Preprocessing dispatches at the zero scheduling attrs (normal
	// class, no deadline): it takes no context.
	Pool *par.Pool
	// Slot is where the materialized matrix's backing array comes from
	// and where Release hands it back (kernel.Slot). Nil uses the
	// package's exact-length slot of one-shot calls.
	Slot *kernel.Slot
}

// DefaultCacheBudget caps the utility cache at 32M entries (256 MB).
const DefaultCacheBudget = int64(32 << 20)

// ErrNoFuncs is returned when no utility functions are supplied.
var ErrNoFuncs = errors.New("core: need at least one sampled utility function")

// UtilityError reports a utility function that returned a value that is
// not a non-negative finite real (Definition 1) at some point.
type UtilityError struct {
	Func  int     // index of the utility function
	Point int     // position of the point in the instance's point set
	Value float64 // the value as the solvers would observe it (rounded in Float32 mode)
}

func (e *UtilityError) Error() string {
	return fmt.Sprintf("core: utility function %d returned %v for point %d (must be a non-negative finite value)", e.Func, e.Value, e.Point)
}

// NewInstance validates the inputs and runs preprocessing. An invalid
// utility is reported as a *UtilityError: the first one in (function,
// point) order.
func NewInstance(points [][]float64, funcs []utility.Func, opts Options) (*Instance, error) {
	if _, err := point.Validate(points); err != nil {
		return nil, err
	}
	if len(funcs) == 0 {
		return nil, ErrNoFuncs
	}
	for i, f := range funcs {
		if f == nil {
			return nil, fmt.Errorf("core: utility function %d is nil", i)
		}
	}
	in := &Instance{Points: points, Funcs: funcs, totalW: float64(len(funcs))}
	if opts.Weights != nil {
		if len(opts.Weights) != len(funcs) {
			return nil, fmt.Errorf("core: %d weights for %d utility functions", len(opts.Weights), len(funcs))
		}
		var total float64
		for i, w := range opts.Weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: weight %d is %v", i, w)
			}
			total += w
		}
		if total <= 0 {
			return nil, errors.New("core: weights sum to zero")
		}
		in.wt = append([]float64(nil), opts.Weights...)
		in.totalW = total
	}

	budget := opts.CacheBudget
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	n, N := len(points), len(funcs)
	if budget > 0 && int64(n)*int64(N) <= budget {
		in.mat = opts.Slot.New(N, n, opts.Float32)
		in.cacheUsed = true
	}
	in.f32 = opts.Float32

	in.par = opts.Parallelism
	in.pool = opts.Pool
	in.satD = make([]float64, N)
	in.bestD = make([]int32, N)
	// Preprocessing is embarrassingly parallel across users: each worker
	// owns a contiguous user range, fills its rows through the shared
	// utility kernel, and indexes best points. Results are bit-identical
	// at any parallelism level. Errors are reported per worker and merged
	// in worker order so the same invalid utility is always the one
	// surfaced.
	ps := kernel.NewPoints(points, nil)
	workers := par.Workers(opts.Parallelism, N)
	errs := make([]error, workers)
	if err := in.pool.Shards(context.Background(), workers, N, func(w, lo, hi int) {
		errs[w] = in.preprocessUsers(ps, lo, hi)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for u := 0; u < N; u++ {
		if in.bestD[u] == -1 {
			in.degen++
		}
	}
	return in, nil
}

// preprocessUsers fills, validates and indexes the best point of each
// user in [lo, hi) in one row pass. Without a materialized matrix the
// row goes to a private one-row scratch in the same storage mode, so the
// checked values are exactly those the recompute path serves.
func (in *Instance) preprocessUsers(ps *kernel.Points, lo, hi int) error {
	mat, scratch := in.mat, !in.cacheUsed
	if scratch {
		mat = kernel.New(1, len(in.Points), in.f32)
	}
	for u := lo; u < hi; u++ {
		r := u
		if scratch {
			r = 0
		}
		bad, bi := mat.FillRow(r, in.Funcs[u], ps)
		if bad >= 0 {
			// Definition 1 requires utilities to be non-negative reals;
			// reject functions that break it rather than silently
			// corrupting every downstream comparison.
			return &UtilityError{Func: u, Point: bad, Value: mat.At(r, bad)}
		}
		if best := mat.At(r, bi); best > 0 {
			in.satD[u], in.bestD[u] = best, int32(bi)
		} else {
			in.satD[u], in.bestD[u] = 0, -1
		}
	}
	return nil
}

// Utility returns f_u(p_j), from the materialized matrix when cached.
// In float32 mode the uncached recompute path applies the same rounding
// the matrix stores, so the observed value never depends on the cache
// budget.
func (in *Instance) Utility(u, j int) float64 {
	if in.cacheUsed {
		return in.mat.At(u, j)
	}
	v := in.Funcs[u].Value(j, in.Points[j])
	if in.f32 {
		return float64(float32(v))
	}
	return v
}

// rowTwoMax returns user u's best and second-best points among the
// listed candidates (visited in order, first index wins ties), with
// sentinels (-1, -1.0). Dispatches to the kernel's contiguous row scan
// when the matrix is materialized.
func (in *Instance) rowTwoMax(u int, idx []int32) (int32, float64, int32, float64) {
	if in.cacheUsed {
		return in.mat.RowTwoMax(u, idx)
	}
	b1, b2 := int32(-1), int32(-1)
	v1, v2 := -1.0, -1.0
	for _, p := range idx {
		v := in.Utility(u, int(p))
		if v > v1 {
			b2, v2 = b1, v1
			b1, v1 = p, v
		} else if v > v2 {
			b2, v2 = p, v
		}
	}
	return b1, v1, b2, v2
}

// rowMax returns user u's best point among the listed candidates with
// sentinel (-1, -1.0) for an empty list.
func (in *Instance) rowMax(u int, idx []int32) (int32, float64) {
	if in.cacheUsed {
		return in.mat.RowMax(u, idx)
	}
	bi, bv := int32(-1), -1.0
	for _, p := range idx {
		if v := in.Utility(u, int(p)); v > bv {
			bi, bv = p, v
		}
	}
	return bi, bv
}

// rowMaxExcl is rowMax skipping the single excluded candidate.
func (in *Instance) rowMaxExcl(u int, idx []int32, excl int32) (int32, float64) {
	if in.cacheUsed {
		return in.mat.RowMaxExcl(u, idx, excl)
	}
	bi, bv := int32(-1), -1.0
	for _, p := range idx {
		if p == excl {
			continue
		}
		if v := in.Utility(u, int(p)); v > bv {
			bi, bv = p, v
		}
	}
	return bi, bv
}

// Transposed returns a freshly built point-major copy of the utility
// matrix (nil when not materialized): Col(p) is point p's contiguous
// utility column across users, the access pattern of insertion-style
// solvers. The copy is transient per call — it is not part of
// MemoryFootprint — and costs one cache-blocked O(Nn) pass.
func (in *Instance) Transposed() *kernel.Transposed {
	if !in.cacheUsed {
		return nil
	}
	return in.mat.Transpose()
}

// Release hands the materialized utility matrix, if it holds at most
// 16 MiB, to the next instance built from the same slot (Options.Slot)
// with a matrix it fits, in the same storage mode
// (kernel.Matrix.Release), which then skips allocating and zeroing it.
// Only the instance's last holder may call it, after every computation
// on the instance and its WithExecution clones has returned; none of
// them may be used afterwards. It does nothing for an uncached instance.
func (in *Instance) Release() {
	if in.cacheUsed {
		in.mat.Release()
	}
}

// NumPoints returns n.
func (in *Instance) NumPoints() int { return len(in.Points) }

// NumFuncs returns the sample size N.
func (in *Instance) NumFuncs() int { return len(in.Funcs) }

// DegenerateUsers returns the number of sampled users whose utility is
// non-positive on every database point; their regret ratio is defined as 0
// and they are excluded from averages.
func (in *Instance) DegenerateUsers() int { return in.degen }

// Cached reports whether the N×n utility matrix was materialized.
func (in *Instance) Cached() bool { return in.cacheUsed }

// Float32 reports whether the instance runs in float32 storage mode.
func (in *Instance) Float32() bool { return in.f32 }

// MemoryFootprint returns the exact resident bytes of the instance's
// owned preprocessing artifacts: the materialized utility matrix (when
// cached), the satisfaction and best-point indexes, and the user
// weights. Points and Funcs are shared references (the dataset and the
// sampled-function cache own them) and are deliberately excluded —
// callers sizing a cache entry account for them once at their owner.
func (in *Instance) MemoryFootprint() int64 {
	const sliceHeader = 24
	N := int64(len(in.Funcs))
	var size int64
	if in.cacheUsed {
		// One flat N×n backing array (4 bytes per entry in float32 mode).
		size += in.mat.FootprintBytes()
	}
	size += sliceHeader + N*8 // satD
	size += sliceHeader + N*4 // bestD
	if in.wt != nil {
		size += sliceHeader + N*8
	}
	return size
}

// BestInDatabase returns user u's best point index in D (-1 if degenerate)
// and their satisfaction from the full database.
func (in *Instance) BestInDatabase(u int) (int, float64) {
	return int(in.bestD[u]), in.satD[u]
}

// ErrInvalidSet is returned when a selection set is empty, larger than the
// database, contains an out-of-range index, or repeats an index. Callers
// can match it with errors.Is to distinguish bad input from solver
// failures.
var ErrInvalidSet = errors.New("core: invalid selection set")

// ValidateSet checks that set is a non-empty list of valid, distinct
// indices into [0, n). Every violation is reported as a wrapped
// ErrInvalidSet.
func ValidateSet(set []int, n int) error {
	if len(set) == 0 {
		return fmt.Errorf("%w: empty", ErrInvalidSet)
	}
	if len(set) > n {
		return fmt.Errorf("%w: %d indices for %d points", ErrInvalidSet, len(set), n)
	}
	seen := make(map[int]bool, len(set))
	for _, p := range set {
		if p < 0 || p >= n {
			return fmt.Errorf("%w: point index %d out of range [0,%d)", ErrInvalidSet, p, n)
		}
		if seen[p] {
			return fmt.Errorf("%w: duplicate point index %d", ErrInvalidSet, p)
		}
		seen[p] = true
	}
	return nil
}

// validateSet checks that set is a non-empty list of valid, distinct point
// indices.
func (in *Instance) validateSet(set []int) error {
	return ValidateSet(set, len(in.Points))
}

// RegretRatios returns the per-user regret ratio of the set (Equation 1's
// summands): rr[u] = (satD[u] - max_{p∈set} f_u(p)) / satD[u], clamped to
// [0, 1]; degenerate users score 0.
func (in *Instance) RegretRatios(set []int) ([]float64, error) {
	if err := in.validateSet(set); err != nil {
		return nil, err
	}
	out := make([]float64, in.NumFuncs())
	for u := range in.Funcs {
		if in.satD[u] <= 0 {
			continue
		}
		var best float64
		if in.cacheUsed {
			best = in.mat.SetMax(u, set)
		} else {
			for _, p := range set {
				if v := in.Utility(u, p); v > best {
					best = v
				}
			}
		}
		rr := (in.satD[u] - best) / in.satD[u]
		if rr < 0 {
			rr = 0
		}
		out[u] = rr
	}
	return out, nil
}

// ARR evaluates the average regret ratio of the set: the Monte-Carlo
// estimator of Equation 1 for sampled instances, or the exact weighted sum
// of Appendix A when the instance carries weights.
func (in *Instance) ARR(set []int) (float64, error) {
	rrs, err := in.RegretRatios(set)
	if err != nil {
		return 0, err
	}
	var sum float64
	for u, v := range rrs {
		sum += in.Weight(u) * v
	}
	return sum / in.totalW, nil
}

// Weight returns user u's probability mass (1 for uniform instances).
func (in *Instance) Weight(u int) float64 {
	if in.wt == nil {
		return 1
	}
	return in.wt[u]
}

// TotalWeight returns the normalization constant Σ_u Weight(u).
func (in *Instance) TotalWeight() float64 { return in.totalW }

// Weighted reports whether the instance carries explicit user weights.
func (in *Instance) Weighted() bool { return in.wt != nil }
