package fam

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/regretlab/fam/internal/baseline"
	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/dp2d"
	"github.com/regretlab/fam/internal/obs"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/utility"
)

// Result is the semantic outcome of a selection query: the chosen set
// and its quality. Everything here is a pure function of the Query — no
// timing, no worker counts, no dispatch statistics — which is what lets
// an Engine cache a Result under Query.Fingerprint alone and share it
// across every execution policy. Execution detail lives in Telemetry.
type Result struct {
	// Indices of the selected points in the dataset, ascending (for
	// evaluation queries: the evaluated set as given).
	Indices []int
	// Labels of the selected points (row labels or synthesized).
	Labels []string
	// Metrics of the selection measured on the sampled users.
	Metrics Metrics
	// ExactARR is the exact average regret ratio when the algorithm
	// computes one (DP2D); negative otherwise.
	ExactARR float64
	// SkylineSize is the candidate count after skyline preprocessing
	// (equal to the dataset size when preprocessing is off).
	SkylineSize int
	// CoresetSize is the candidate count the solver actually ran over
	// after the ε-kernel coreset prepass (Query.Coreset); −1 when the
	// prepass was off. When the prepass would have pruned below K the
	// unpruned candidates are kept and CoresetSize equals SkylineSize.
	CoresetSize int
	// Cached reports that the Result was answered from an Engine's
	// result cache; always false for one-shot Select.
	Cached bool
}

// ErrNilArgument is returned when the dataset or distribution is nil.
var ErrNilArgument = errors.New("fam: dataset and distribution must be non-nil")

// ErrInvalidSet is returned by Evaluate (and by Metrics evaluation inside
// Select) when an explicit selection set is empty, larger than the
// dataset, contains an out-of-range index, or repeats an index. Match it
// with errors.Is.
var ErrInvalidSet = core.ErrInvalidSet

// Select chooses q.K points from q.Data minimizing (approximately,
// except for DP2D/BruteForce) the average regret ratio under q.Dist,
// executing under the given policy. The Result depends only on the
// Query; the Exec moves only the Telemetry. Queries with a non-nil
// ExplicitSet are evaluation queries and belong to Evaluate.
func Select(ctx context.Context, q Query, exec Exec) (*Result, *Telemetry, error) {
	if q.ExplicitSet != nil {
		return nil, nil, fmt.Errorf("%w: ExplicitSet makes this an evaluation query; call Evaluate", ErrBadOptions)
	}
	norm, err := normalizeQuery(q.Data, q.Dist, q, true)
	if err != nil {
		return nil, nil, err
	}
	// Admission: a deadline that has already passed is shed before any
	// sampling or preprocessing; an admitted deadline bounds the context
	// (one-shot queries have no shared pool, so MaxQueue does not apply).
	if err := exec.admit(nil); err != nil {
		return nil, nil, err
	}
	ctx, cancel := exec.schedContext(ctx)
	defer cancel()
	ctx, span := obs.Start(ctx, "select")
	defer span.End()
	preStart := time.Now()
	prep, err := prepare(ctx, callMemo{}, q.Data, q.Dist, q, norm, exec)
	if err != nil {
		return nil, nil, err
	}
	preprocess := time.Since(preStart)
	res, tel, err := solve(ctx, q.Data, q.Dist, prep, q, exec, nil)
	if err != nil {
		return nil, nil, err
	}
	tel.Preprocess = preprocess
	span.End()
	tel.Trace = traceOf(span)
	return res, tel, nil
}

// Evaluate measures the Metrics of q.ExplicitSet (dataset row indices)
// under q.Dist with the query's sampling parameters.
func Evaluate(ctx context.Context, q Query, exec Exec) (Metrics, error) {
	norm, err := normalizeQuery(q.Data, q.Dist, q, false)
	if err != nil {
		return Metrics{}, err
	}
	// Reject malformed sets before paying for sampling and preprocessing.
	if err := core.ValidateSet(q.ExplicitSet, q.Data.N()); err != nil {
		return Metrics{}, err
	}
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	if err := exec.admit(nil); err != nil {
		return Metrics{}, err
	}
	ctx, cancel := exec.schedContext(ctx)
	defer cancel()
	prep, err := prepare(ctx, callMemo{}, q.Data, q.Dist, q, norm, exec)
	if err != nil {
		return Metrics{}, err
	}
	return prep.in.Evaluate(q.ExplicitSet, nil)
}

// shrinkFunc answers a GREEDY-SHRINK selection of k points on prepared
// state exactly as core.GreedyShrink would, reporting whether the answer
// came from a recorded trajectory.
type shrinkFunc func(ctx context.Context, prep *prepared, k int, strategy core.Strategy) ([]int, core.ShrinkStats, bool, error)

// solve runs the query phase on prepared state: the selected solver, the
// candidate-to-dataset index mapping, and the metrics evaluation. The
// Telemetry's Preprocess field is left for the caller, which knows
// whether preprocessing was fresh or cached. A nil shrink runs
// GREEDY-SHRINK directly; an Engine passes its trajectory-backed one.
func solve(ctx context.Context, ds *Dataset, dist Distribution, prep *prepared, q Query, exec Exec, shrink shrinkFunc) (*Result, *Telemetry, error) {
	in := prep.in
	candidates := prep.candidates
	res := &Result{ExactARR: -1, SkylineSize: prep.skylineSize, CoresetSize: prep.coresetSize}
	tel := &Telemetry{}
	ctx, span := obs.Start(ctx, "solve")
	span.SetAttr("algorithm", q.Algorithm.String())
	span.SetAttrInt("k", q.K)
	defer span.End()
	queryStart := time.Now()
	var local []int
	switch q.Algorithm {
	case GreedyShrink, GreedyShrinkLazy, GreedyShrinkNaive:
		strategy := core.StrategyDelta
		if q.Algorithm == GreedyShrinkLazy {
			strategy = core.StrategyLazy
		} else if q.Algorithm == GreedyShrinkNaive {
			strategy = core.StrategyNaive
		}
		var (
			set   []int
			stats core.ShrinkStats
			err   error
		)
		if shrink != nil {
			set, stats, tel.FromTrajectory, err = shrink(ctx, prep, q.K, strategy)
		} else {
			set, stats, err = core.GreedyShrink(ctx, in, q.K, strategy)
		}
		if err != nil {
			return nil, nil, err
		}
		local, tel.Stats = set, stats
	case DP2D:
		// in.Points is the dataset unless the coreset prepass pruned it
		// (the skyline restriction is off for DP2D); out.Set indexes it,
		// so the uniform candidates[p] mapping below applies.
		out, err := dp2d.SolveOpts(ctx, in.Points, q.K, dp2d.Options{Parallelism: exec.Parallelism, Pool: in.Pool()})
		if err != nil {
			return nil, nil, err
		}
		local = out.Set
		res.ExactARR = out.ARR
		res.SkylineSize = out.SkylineSize
	case BruteForce:
		set, _, err := core.BruteForce(ctx, in, q.K)
		if err != nil {
			return nil, nil, err
		}
		local = set
	case MRRGreedy:
		var set []int
		var err error
		if utility.IsLinear(dist) {
			set, err = baseline.MRRGreedyLP(ctx, in.Points, q.K, exec.Parallelism, in.Pool())
		} else {
			set, err = baseline.MRRGreedySampled(ctx, in, q.K)
		}
		if err != nil {
			return nil, nil, err
		}
		local = set
	case SkyDom:
		set, err := baseline.SkyDom(ctx, in.Points, q.K, exec.Parallelism, in.Pool())
		if err != nil {
			return nil, nil, err
		}
		local = set // instance indices, identity unless the coreset pruned
	case KHit:
		set, err := baseline.KHit(ctx, in, q.K)
		if err != nil {
			return nil, nil, err
		}
		local = set
	case GreedyAdd:
		set, stats, err := core.GreedyAdd(ctx, in, q.K)
		if err != nil {
			return nil, nil, err
		}
		local, tel.Stats = set, stats
	default:
		return nil, nil, fmt.Errorf("%w: unknown algorithm %d", ErrBadOptions, int(q.Algorithm))
	}
	tel.Query = time.Since(queryStart)

	// Map instance-local indices back to dataset indices. Every solver —
	// DP2D and SkyDom included — now runs over in.Points, so the mapping
	// through candidates is uniform (it is the identity whenever no
	// restriction applied).
	res.Indices = make([]int, len(local))
	for i, p := range local {
		res.Indices[i] = candidates[p]
	}
	res.Labels = make([]string, len(res.Indices))
	for i, idx := range res.Indices {
		res.Labels[i] = ds.Label(idx)
	}

	// Metrics are measured against the candidate instance; for monotone
	// distributions satisfaction over the skyline equals satisfaction
	// over the database, and the coreset keeps every user's argmax, so
	// the numbers are the database-level quantities either way.
	m, err := in.Evaluate(local, nil)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics = m
	return res, tel, nil
}

// SampleSize exposes Theorem 4's bound: the number of sampled utility
// functions needed for error eps at confidence 1-sigma.
func SampleSize(eps, sigma float64) (int, error) { return sampling.SampleSize(eps, sigma) }
