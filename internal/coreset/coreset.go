// Package coreset implements the ε-kernel candidate filter that makes
// the n=10⁶ regime tractable: before any solver runs, candidates that
// are never within ε of best for any sampled utility function are
// dropped. A candidate c survives iff some user u has
//
//	f_u(c) ≥ (1−ε) · max_{c'} f_u(c'),
//
// i.e. c is the argmax of some sampled utility or within ε of one. The
// per-user argmax always survives (it trivially satisfies its own
// threshold), so every user's satisfaction over the pruned set equals
// their satisfaction over the full candidate set — satD and bestD are
// unchanged, and the average regret ratio reported for any selection
// over the pruned candidates is still the database-level value. What
// pruning can cost is solution quality, bounded by ε: a dropped
// candidate improves no user by more than an ε fraction of their best,
// which is the ε-kernel guarantee of Agarwal–Kumar–Sintos–Suri that
// greedy over a coreset preserves its approximation factor up to ε.
//
// Utilities come from the shared fill kernel (kernel.Fill), the same
// code that materializes core.Instance matrices: each user's row over
// the candidates is computed column by column for utility.Linear and by
// a per-point Value call for every other Func, bit-identical either way,
// and the one call also returns the row's first invalid entry and its
// argmax.
//
// Determinism: survival marks are per-(user, candidate) pure predicates
// OR-merged across users, so the surviving set — returned in ascending
// original-index order — is identical at any worker count.
package coreset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/regretlab/fam/internal/kernel"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/utility"
)

// Options configures the filter.
type Options struct {
	// Eps is the kernel tolerance in [0, 1): a candidate survives when
	// it reaches (1−Eps) of some user's best utility. Zero keeps only
	// exact (possibly tied) per-user argmaxes.
	Eps float64
	// Parallelism bounds the worker goroutines sharding the per-user
	// scans (0 = all CPUs, 1 = serial). The result is identical at any
	// setting.
	Parallelism int
	// Pool is an externally owned worker pool; nil spawns per-call
	// goroutines.
	Pool *par.Pool
}

// ErrBadEps is returned when the tolerance is outside [0, 1).
var ErrBadEps = errors.New("coreset: eps must satisfy 0 <= eps < 1")

// Filter returns the surviving subset of cand in ascending original-
// index order. points is the full dataset — candidates are evaluated at
// their original indices so index-keyed utility functions (utility.Table)
// resolve correctly. cand must be sorted ascending; a nil cand means
// every point is a candidate. Users whose best utility over the
// candidates is non-positive are degenerate and mark no survivors,
// mirroring instance preprocessing. Utilities must be non-negative and
// finite; violations are reported in deterministic (user, candidate)
// order.
func Filter(ctx context.Context, points [][]float64, cand []int, funcs []utility.Func, opts Options) ([]int, error) {
	if opts.Eps < 0 || opts.Eps >= 1 || math.IsNaN(opts.Eps) {
		return nil, fmt.Errorf("%w: got %v", ErrBadEps, opts.Eps)
	}
	if cand == nil {
		cand = make([]int, len(points))
		for i := range cand {
			cand[i] = i
		}
	}
	m, N := len(cand), len(funcs)
	if m == 0 || N == 0 {
		return []int{}, nil
	}

	// Each worker owns a contiguous user range and a private mark bitset
	// (bit i&63 of word i>>6 marks candidate i); marks are set-only, so
	// the word-wise OR-merge across workers is idempotent and the
	// survivor set is worker-count independent.
	ps := kernel.NewPoints(points, cand)
	workers := par.Workers(opts.Parallelism, N)
	words := (m + 63) / 64
	marks := make([][]uint64, workers)
	errs := make([]error, workers)
	err := opts.Pool.Shards(ctx, workers, N, func(w, lo, hi int) {
		mark := make([]uint64, words)
		vals := make([]float64, m)
		for u := lo; u < hi; u++ {
			if ctx.Err() != nil {
				return
			}
			bad, bi := kernel.Fill(ps, funcs[u], vals)
			if bad >= 0 {
				errs[w] = fmt.Errorf("coreset: utility function %d returned %v for point %d (must be a non-negative finite value)", u, vals[bad], cand[bad])
				return
			}
			best := vals[bi]
			if best <= 0 {
				continue // degenerate user: no point satisfies them
			}
			kernel.MarkAtLeast(vals, (1-opts.Eps)*best, mark)
		}
		marks[w] = mark
	})
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	merged := make([]uint64, words)
	for _, mark := range marks {
		for i, word := range mark {
			merged[i] |= word
		}
	}
	out := make([]int, 0, m)
	for i, word := range merged {
		for ; word != 0; word &= word - 1 {
			out = append(out, cand[i<<6|bits.TrailingZeros64(word)])
		}
	}
	return out, nil
}
