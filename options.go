package fam

import (
	"errors"
	"fmt"
	"strings"

	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/utility"
)

// ErrBadOptions is returned when a Query is invalid: K out of bounds,
// Epsilon or Sigma outside (0, 1), a negative SampleSize or a resolved
// sample size above maxSampleSize, an unknown Algorithm, a distribution
// whose dimension does not match the dataset, or ExactDiscrete with a
// non-discrete distribution. Match it with errors.Is; the wrapped
// message names the offending field. Bad requests fail here — before
// any sampling, preprocessing, or cache traffic.
var ErrBadOptions = errors.New("fam: bad options")

// normalized is the validated, resolved form of a Query that Select,
// Evaluate, and the Engine all work from: sample sizes are derived, the
// exact-discrete distribution is unwrapped, and the skyline decision is
// made once.
type normalized struct {
	// sampleSize is the resolved number of utility functions to draw
	// (0 when the instance is exact-discrete).
	sampleSize int
	// discrete is the unwrapped distribution when ExactDiscrete is set.
	discrete *utility.Discrete
	// useSkyline reports whether preprocessing restricts candidates to
	// the skyline (monotone Θ, not disabled, not an index-based or
	// skyline-operating algorithm).
	useSkyline bool
	// useCoreset reports whether the ε-kernel candidate prepass runs
	// after the skyline restriction; coresetEps is its resolved
	// tolerance (DefaultCoresetEps when the query left it zero).
	useCoreset bool
	coresetEps float64
}

// DefaultCoresetEps is the kernel tolerance used when a query enables
// Coreset without setting CoresetEps: candidates within 5% of some
// user's best utility survive the prepass — in practice a few hundred
// survivors out of 10⁶ points. The ARR the pruning costs has no bound
// (see Query.Coreset).
const DefaultCoresetEps = 0.05

// resolveCoresetEps validates and defaults the coreset tolerance:
// zero means DefaultCoresetEps; anything outside [0, 1) is rejected
// (eps ≥ 1 would keep every candidate whose utility is positive for
// nobody's benefit, and a negative tolerance is meaningless).
func resolveCoresetEps(eps float64) (float64, error) {
	if eps == 0 {
		return DefaultCoresetEps, nil
	}
	if eps < 0 || eps >= 1 || eps != eps {
		return 0, fmt.Errorf("%w: CoresetEps must be in [0, 1), got %g", ErrBadOptions, eps)
	}
	return eps, nil
}

// normalizeQuery validates q against the dataset and distribution and
// resolves the derived quantities. needK distinguishes selection queries
// (K and Algorithm must be valid) from evaluation queries (both
// ignored). Every rejection wraps ErrBadOptions except nil arguments
// (ErrNilArgument) and dataset corruption (the dataset's own error).
func normalizeQuery(ds *Dataset, dist Distribution, q Query, needK bool) (normalized, error) {
	if ds == nil || dist == nil {
		return normalized{}, ErrNilArgument
	}
	if err := ds.Validate(); err != nil {
		return normalized{}, err
	}
	return deriveQuery(ds, dist, q, needK)
}

// deriveQuery is normalizeQuery against an already-validated dataset:
// Engine.Select, Engine.Evaluate and the batch planner call it, skipping
// the O(n·d) structural re-validation that Register already performed
// (registered datasets are immutable).
func deriveQuery(ds *Dataset, dist Distribution, q Query, needK bool) (normalized, error) {
	var norm normalized
	if needK {
		if q.K <= 0 || q.K > ds.N() {
			return norm, fmt.Errorf("%w: K must satisfy 0 < K <= %d, got %d", ErrBadOptions, ds.N(), q.K)
		}
		if q.Algorithm < GreedyShrink || q.Algorithm > GreedyAdd {
			return norm, fmt.Errorf("%w: unknown algorithm %d", ErrBadOptions, int(q.Algorithm))
		}
	}
	if d := dist.Dim(); d != 0 && d != ds.Dim() {
		return norm, fmt.Errorf("%w: distribution dimension %d != dataset dimension %d", ErrBadOptions, d, ds.Dim())
	}
	if q.ExactDiscrete {
		disc, ok := dist.(*utility.Discrete)
		if !ok {
			return norm, fmt.Errorf("%w: ExactDiscrete requires a discrete distribution, got %s", ErrBadOptions, dist.Name())
		}
		norm.discrete = disc
	} else {
		n, err := resolveSampleSize(q.Epsilon, q.Sigma, q.SampleSize)
		if err != nil {
			return norm, err
		}
		norm.sampleSize = n
	}
	if needK {
		norm.useSkyline = dist.Monotone() && !q.DisableSkyline && dist.Dim() != 0 &&
			q.Algorithm != DP2D && q.Algorithm != SkyDom
	}
	if q.CoresetEps != 0 && !q.Coreset {
		return norm, fmt.Errorf("%w: CoresetEps requires Coreset", ErrBadOptions)
	}
	if q.Coreset {
		if !needK {
			return norm, fmt.Errorf("%w: Coreset applies to selection queries only", ErrBadOptions)
		}
		eps, err := resolveCoresetEps(q.CoresetEps)
		if err != nil {
			return norm, err
		}
		norm.useCoreset, norm.coresetEps = true, eps
	}
	return norm, nil
}

// maxSampleSize caps the resolved number of sampled utility functions,
// so one request cannot exhaust a server: the sampled functions take
// O(N·d) memory and every instance adds an N×candidates matrix. 1<<22
// is ~6000× the default N=691 and admits ε down to ~1.3e-3 at σ=0.1.
const maxSampleSize = 1 << 22

// resolveSampleSize applies Theorem 4's bound to the sampling fields: an
// explicit positive sampleSize wins, otherwise N = ceil(3·ln(1/σ)/ε²)
// with both parameters defaulting to 0.1 (N = 691). Either way N may not
// exceed maxSampleSize.
func resolveSampleSize(eps, sigma float64, sampleSize int) (int, error) {
	if sampleSize < 0 {
		return 0, fmt.Errorf("%w: SampleSize must be non-negative, got %d", ErrBadOptions, sampleSize)
	}
	n := sampleSize
	if n == 0 {
		if eps == 0 {
			eps = 0.1
		}
		if sigma == 0 {
			sigma = 0.1
		}
		var err error
		if n, err = sampling.SampleSize(eps, sigma); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadOptions, err)
		}
	}
	if n > maxSampleSize {
		return 0, fmt.Errorf("%w: sample size %d exceeds the limit of %d (raise Epsilon or Sigma, or lower SampleSize)", ErrBadOptions, n, maxSampleSize)
	}
	return n, nil
}

// ParseAlgorithm maps an algorithm's short name (as printed by
// Algorithm.String and used in experiment tables, CLI flags, and the
// famserve API) back to the enum, case-insensitively. Unknown names wrap
// ErrBadOptions.
func ParseAlgorithm(s string) (Algorithm, error) {
	name := strings.ToLower(s)
	for a := GreedyShrink; a <= GreedyAdd; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown algorithm %q", ErrBadOptions, s)
}
