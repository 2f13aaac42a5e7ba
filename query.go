package fam

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/sched"
)

// Query is the semantic problem specification: everything that
// determines the answer of a selection (or evaluation) and nothing that
// merely determines how fast it is computed. The paper's objective is a
// function of (dataset, Θ, k, algorithm, ε, σ, N, seed) only — execution
// policy lives in Exec, and two queries with equal Fingerprints always
// produce bit-identical Results regardless of the Exec they run under.
type Query struct {
	// Dataset names a registered dataset when the query is served by an
	// Engine (Select, Evaluate, SelectBatch resolve the data and its
	// distribution Θ from the registry). One-shot queries leave it empty
	// and supply Data and Dist directly.
	Dataset string
	// Data and Dist carry the database and the utility distribution Θ for
	// one-shot Select/Evaluate calls. Engine-served queries leave them nil;
	// the registry is the source of truth there.
	Data *Dataset
	Dist Distribution

	// K is the number of points to select. Required for selection
	// queries; ignored by evaluation queries (ExplicitSet non-nil).
	K int
	// Algorithm picks the solver; the zero value is GreedyShrink.
	Algorithm Algorithm
	// Epsilon and Sigma set the Monte-Carlo error and confidence of
	// Theorem 4; the sample size is then N = ceil(3·ln(1/σ)/ε²). Both
	// default to 0.1 (N = 691). SampleSize overrides them when positive.
	// A resolved N above 1<<22 is rejected with ErrBadOptions.
	Epsilon float64
	Sigma   float64
	// SampleSize fixes the number of sampled utility functions directly.
	SampleSize int
	// Seed drives all sampling; equal seeds give identical results.
	Seed uint64
	// DisableSkyline turns off the skyline preprocessing that is applied
	// automatically for monotone distributions.
	DisableSkyline bool
	// ExactDiscrete switches from Monte-Carlo sampling to the exact
	// weighted evaluation of the paper's Appendix A. It requires a
	// discrete distribution (e.g. one built with TableUsers).
	ExactDiscrete bool
	// CacheBudget caps the materialized utility matrix (entries); zero
	// uses the default, negative disables caching. It is semantic only in
	// the weak sense that it changes which code path evaluates utilities —
	// results are identical either way — but it shapes the preprocessing
	// artifact, so it participates in the Fingerprint.
	CacheBudget int64
	// Coreset enables the ε-kernel candidate prepass: after the skyline
	// restriction, candidates that are never within CoresetEps of best
	// for any sampled utility function are dropped before the solver
	// runs, shrinking the candidate set by orders of magnitude on large
	// instances. Every user's argmax survives, so the reported metrics
	// remain database-level quantities; what pruning can cost is
	// solution quality, bounded by CoresetEps (the ε-kernel guarantee).
	// It changes answers, so it is a Query knob with its own Fingerprint
	// component. Selection queries only.
	Coreset bool
	// CoresetEps is the kernel tolerance in [0, 1): a candidate survives
	// the prepass when it reaches (1−CoresetEps) of some user's best
	// utility. Zero uses DefaultCoresetEps. Requires Coreset.
	CoresetEps float64
	// Float32 stores the materialized utility matrix in float32, halving
	// its resident bytes — the difference between fitting the cache
	// budget or recomputing per lookup on large instances. Results are
	// bit-deterministic within the mode (the uncached path rounds
	// identically, so the cache budget still never changes answers) but
	// numerically differ from float64 runs by the rounding (~1e-7
	// relative on ARR), so it is opt-in, stats-tolerant, and carries its
	// own Fingerprint component.
	Float32 bool

	// ExplicitSet turns the query into an evaluation: instead of solving
	// for K points, the Metrics of these dataset row indices are measured
	// under the query's sampling parameters. Evaluate requires it; Select
	// rejects it.
	ExplicitSet []int
}

// Exec is the execution policy: knobs that change how fast a query runs
// but never what it answers. PR 1–3 established bit-identity of every
// solver across all of these; keeping them out of Query is what lets an
// Engine share one cached result across every execution configuration.
type Exec struct {
	// Parallelism bounds the worker goroutines used for preprocessing and
	// for the per-candidate evaluations inside every solver. All parallel
	// reductions break ties to the lowest index, so results are
	// bit-identical at any setting. Zero uses every CPU (GOMAXPROCS); one
	// forces serial execution.
	Parallelism int
	// LazyBatch sets the refresh batch size of GreedyShrinkLazy: up to
	// LazyBatch stale evaluation-queue entries are re-evaluated
	// concurrently instead of one at a time. Selected sets and all quality
	// metrics are identical at any batch size; only the work counters in
	// Telemetry move. Zero or one keeps the paper's serial pop-refresh
	// loop. Ignored by every other algorithm.
	LazyBatch int

	// Priority is the query's scheduling class. Under load, the shared
	// pool's grant policy serves queued helper requests of higher classes
	// first (weighted priority, then earliest deadline, then arrival);
	// with idle helpers every class runs immediately. The zero value is
	// PriorityNormal. Like every Exec knob it never changes an answer —
	// only when the work is granted helpers.
	Priority Priority
	// Deadline is the query's absolute completion deadline (zero = none).
	// Admission control sheds a query whose deadline has already passed
	// (ErrShed — it never consumes solver time); an admitted query runs
	// under a context bounded by the deadline, so overrunning work stops
	// with context.DeadlineExceeded. The deadline also participates in
	// the pool's earliest-deadline-first grant ordering.
	Deadline time.Time
	// Weight, when positive, overrides the query's class weight in the
	// pool's weighted grant policy — the per-tenant knob: a tenant
	// granted Weight 8 within PriorityNormal outranks default normal
	// traffic (and accrues starvation-relief deficit at its own rate)
	// without occupying a whole priority class. Zero uses the class
	// weight. Like Priority it never changes an answer.
	Weight int
	// MaxQueue bounds the pool's grant-queue depth this query will accept
	// on admission: when more helper requests than MaxQueue are already
	// queued, the Engine sheds the query (ErrShed) instead of piling on.
	// Zero accepts any depth. One-shot queries (no shared pool) ignore
	// it. A SelectBatch checks the bound once for the whole batch — an
	// admitted batch's members never shed on each other's tickets.
	MaxQueue int

	// pool is the long-lived worker pool the query's shard fan-outs are
	// multiplexed over. It is engine-owned plumbing: fam.Engine sets it to
	// its process-wide pool; one-shot queries leave it nil and spawn
	// per-call workers.
	pool *par.Pool
	// wait is the per-query queue-wait counter the engine attaches so
	// every helper grant of this query's fan-outs attributes its
	// enqueue-to-grant latency back to the query's Telemetry.QueueWait.
	wait *sched.WaitCounter
}

// Priority is a query's scheduling class. Classes order queued helper
// grants under load; they never change results. The zero value is
// PriorityNormal.
type Priority int8

// The scheduling classes, lowest to highest urgency.
const (
	PriorityLow    Priority = -1
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
)

// String returns the class name used by flags, JSON, and headers.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// ParsePriority maps a class name (case-insensitive; empty = normal)
// back to the Priority. Unknown names wrap ErrBadOptions.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	default:
		return 0, fmt.Errorf("%w: unknown priority %q (want low|normal|high)", ErrBadOptions, s)
	}
}

// MarshalText implements encoding.TextMarshaler; JSON surfaces carry
// priorities by name.
func (p Priority) MarshalText() ([]byte, error) {
	if p < PriorityLow || p > PriorityHigh {
		return nil, fmt.Errorf("%w: unknown priority %d", ErrBadOptions, int(p))
	}
	return []byte(p.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParsePriority.
func (p *Priority) UnmarshalText(text []byte) error {
	v, err := ParsePriority(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// ErrShed is returned when admission control rejects a query before any
// solver work runs: its Deadline had already passed on arrival, or the
// engine's grant queue was deeper than its MaxQueue bound. Shed queries
// consumed no helper time — clients should back off and retry (the
// serve layer answers 429). Match it with errors.Is.
var ErrShed = errors.New("fam: query shed by admission control")

// attrs converts the Exec's scheduling fields to the internal form.
func (x Exec) attrs() sched.Attrs {
	return sched.Attrs{Priority: sched.Priority(x.Priority), Deadline: x.Deadline, Weight: x.Weight, Wait: x.wait}
}

// fillAttrs are the scheduling attrs detached cache fills run under:
// the requester's class and deadline for grant ordering, but the
// deadline is soft — a fill outliving its triggering request is shared
// infrastructure that should complete and be stored, not be shed
// halfway. The requester's own wait is still bounded by its context
// deadline.
func (x Exec) fillAttrs() sched.Attrs {
	return sched.Attrs{Priority: sched.Priority(x.Priority), Deadline: x.Deadline, Weight: x.Weight, SoftDeadline: true, Wait: x.wait}
}

// admit applies the Exec's admission policy: a deadline that has
// already passed sheds the query, and (when depth reports a shared
// pool's grant queue) a queue deeper than MaxQueue sheds it too.
func (x Exec) admit(depth func() int) error {
	if !x.Deadline.IsZero() && !time.Now().Before(x.Deadline) {
		return fmt.Errorf("%w: deadline %s already passed", ErrShed, x.Deadline.Format(time.RFC3339Nano))
	}
	if x.MaxQueue > 0 && depth != nil {
		if d := depth(); d > x.MaxQueue {
			return fmt.Errorf("%w: %d helper requests queued (MaxQueue %d)", ErrShed, d, x.MaxQueue)
		}
	}
	return nil
}

// schedContext derives the execution context of an admitted query: the
// scheduling attrs attached for the pool's grant policy, and the
// context bounded by the deadline when one is set. The returned cancel
// must be called.
func (x Exec) schedContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx = sched.NewContext(ctx, x.attrs())
	if x.Deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, x.Deadline)
}

// withPool returns a copy of the Exec carrying the given worker pool.
func (x Exec) withPool(p *par.Pool) Exec {
	x.pool = p
	return x
}

// withWait returns a copy of the Exec carrying a per-query queue-wait
// counter; the engine attaches one per accepted query.
func (x Exec) withWait(w *sched.WaitCounter) Exec {
	x.wait = w
	return x
}

// Telemetry reports how a query was executed: timings and work counters
// that depend on the Exec (worker counts, dispatch batches, speculative
// refreshes) and therefore do not belong in the cacheable Result. A
// result-cache hit reports the hit's own execution (its timings are the
// cache lookup's, near zero) and carries the filling execution's
// Telemetry under Replay.
type Telemetry struct {
	// Preprocess covers skyline computation, utility sampling and
	// best-point indexing; Query covers the selection algorithm itself —
	// the paper's two timing columns. An Engine reports the time its
	// caches actually spent: Preprocess is near zero when the artifacts
	// were already built.
	Preprocess time.Duration
	Query      time.Duration
	// QueueWait is the time the query spent waiting on the engine's
	// scheduling machinery: the summed enqueue-to-grant latency of the
	// query's own helper tickets on the shared pool (attributed per
	// query on the direct Select/Evaluate path as well as for batch
	// members), plus — for batch members only — the wait for their plan
	// slot behind the group's representative and the batch's width
	// bound. Shared preprocessing builds (skyline indexes, dataset-wide
	// instances) are infrastructure, not one request's work, so their
	// grant waits stay out of every query's QueueWait; the engine-wide
	// sum including them is EngineStats.Sched.QueueWait.
	QueueWait time.Duration
	// Stats carries the GREEDY-SHRINK / GreedyAdd work counters when
	// applicable (iterations, evaluations, lazy skips, worker dispatch,
	// speculative refresh accounting).
	Stats ShrinkStats
	// Replay carries the Telemetry of the execution that filled the
	// result-cache entry when this query was answered from the cache
	// (Result.Cached). The top-level fields describe THIS query's
	// execution — a hit's Preprocess/Query are the cache lookup's (near
	// zero) and QueueWait is the hit's own admission wait — while Replay
	// preserves what the original computation cost. Nil on misses and
	// one-shot queries.
	Replay *Telemetry
	// Trace is the query's finished span tree when the request was traced
	// (Engine.Select under a TraceContext, or serve with exec.trace /
	// X-Fam-Trace). It describes this execution — never replayed from the
	// cache: a hit's trace shows the lookup, not the fill. Nil when
	// tracing is off.
	Trace *TraceSpan
}

// Fingerprint returns the canonical cache identity of the query: a
// stable string over the semantic fields only, with the sampling
// parameters resolved (Epsilon/Sigma folded into the effective sample
// size) and the cache budget normalized. Two queries with the same
// Fingerprint produce bit-identical Results under any Exec — this is the
// key the Engine's result cache uses, which is why equal-seed queries
// share entries across parallelism settings.
//
// The dataset is identified by name — Dataset (the registry name) or,
// for one-shot queries, Data.Name — not by content. Engine registries
// enforce name uniqueness, so the guarantee is unconditional there;
// callers keying their own caches over one-shot queries must likewise
// ensure a name refers to one dataset (two different datasets loaded
// under the same name fingerprint identically). Fingerprint fails on
// queries whose sampling parameters are invalid or whose Algorithm is
// unknown.
func (q Query) Fingerprint() (string, error) {
	name := q.Dataset
	if name == "" && q.Data != nil {
		name = q.Data.Name
	}
	sampleSize := 0
	if !q.ExactDiscrete {
		n, err := resolveSampleSize(q.Epsilon, q.Sigma, q.SampleSize)
		if err != nil {
			return "", err
		}
		sampleSize = n
	}
	var sb strings.Builder
	if q.ExplicitSet != nil {
		// Evaluation queries: K and Algorithm are ignored, the set is the
		// identity.
		fmt.Fprintf(&sb, "eval|%s|seed=%d|N=%d|exact=%t|budget=%d",
			name, q.Seed, sampleSize, q.ExactDiscrete, effectiveBudget(q.CacheBudget))
		if q.Float32 {
			sb.WriteString("|f32=t")
		}
		sb.WriteString("|set=")
		for i, idx := range q.ExplicitSet {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(idx))
		}
		return sb.String(), nil
	}
	if q.Algorithm < GreedyShrink || q.Algorithm > GreedyAdd {
		return "", fmt.Errorf("%w: unknown algorithm %d", ErrBadOptions, int(q.Algorithm))
	}
	fmt.Fprintf(&sb, "sel|%s|algo=%s|k=%d|seed=%d|N=%d|exact=%t|nosky=%t|budget=%d",
		name, q.Algorithm, q.K, q.Seed, sampleSize, q.ExactDiscrete,
		q.DisableSkyline, effectiveBudget(q.CacheBudget))
	// Opt-in semantic knobs append conditionally so fingerprints of
	// queries that never touch them are byte-stable across releases.
	if q.Coreset {
		eps, err := resolveCoresetEps(q.CoresetEps)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "|cs=%g", eps)
	}
	if q.Float32 {
		sb.WriteString("|f32=t")
	}
	return sb.String(), nil
}
