package fam

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/regretlab/fam/internal/core"
	ecache "github.com/regretlab/fam/internal/engine"
	"github.com/regretlab/fam/internal/obs"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/sched"
	"github.com/regretlab/fam/internal/utility"
)

// Engine is the long-lived serving counterpart of the one-shot Select: a
// process-wide worker pool multiplexed across all concurrent queries, a
// registry of named datasets, a preprocessing cache that builds each
// expensive per-dataset artifact exactly once (the skyline index, the
// sampled utility functions, the ε-kernel coreset index of Coreset
// queries, and the materialized utility matrix — each under singleflight
// deduplication, so a thundering herd of identical cold queries triggers
// one build), and a bounded result cache for whole query answers.
//
// Engine queries are (Query, Exec) pairs: the Query names a registered
// dataset and fixes the semantic problem, the Exec sets execution policy
// only. The result cache keys on Query.Fingerprint() alone — Results are
// pure functions of the Query, so equal-fingerprint queries share one
// cache entry no matter how their Exec differs.
//
// Determinism: an Engine-served Result is bit-identical to a fresh
// one-shot Select with the same Query at any concurrency — same Indices,
// Labels, Metrics, ExactARR, SkylineSize, and CoresetSize: both run the
// one preprocessing pipeline (prepare). Only the Telemetry differs
// (cached work is not re-done; a result-cache hit reports its own near-
// zero execution and carries the filling execution's Telemetry under
// Telemetry.Replay) and Result.Cached marks answers served from the
// result cache.
//
// GREEDY-SHRINK removes one point per iteration, so one run down to a
// single point holds the answer for every K. A GreedyShrink,
// GreedyShrinkLazy or GreedyShrinkNaive selection that misses the
// result cache looks up its instance's recorded trajectory, keyed by
// the instance, the strategy and the effective worker bound. A key's
// first sighting only marks the key and runs the solver as one-shot
// Select does; the second records the run down to one point
// (core.ShrinkTrajectory), and every later K is read from the recording
// (Telemetry.FromTrajectory) with the same Result and Telemetry.Stats a
// run to K reports. A K above about n/2 neither marks nor records, so a
// recording makes at most about twice a run's iterations. Trajectories
// live in their own LRU, bounded by ResultCacheBytes apart from the
// answers.
//
// All methods are safe for concurrent use. Close releases the pool;
// queries issued after Close return ErrEngineClosed.
type Engine struct {
	pool    *par.Pool
	prep    *ecache.Cache
	results *ecache.Cache
	trajs   *ecache.Cache // recorded GREEDY-SHRINK runs, behind a doorkeeper

	mu       sync.RWMutex
	datasets map[string]*registration

	selects      atomic.Uint64
	evaluates    atomic.Uint64
	batches      atomic.Uint64
	batchQueries atomic.Uint64
	// sheds counts queries rejected by engine admission control (deadline
	// already passed, grant queue over the request's MaxQueue);
	// plannedDedups and planGroups report the batch planner's work.
	sheds         atomic.Uint64
	plannedDedups atomic.Uint64
	planGroups    atomic.Uint64
	closed        atomic.Bool
	start         time.Time
}

// registration binds a registered dataset to its distribution Θ. Both
// are fixed at registration time: the pair is what preprocessing is
// keyed on.
type registration struct {
	name string
	ds   *Dataset
	dist Distribution
}

// EngineConfig configures NewEngine. The zero value is serviceable:
// GOMAXPROCS pool workers and the default byte budgets.
type EngineConfig struct {
	// Workers sizes the shared worker pool every query's shard fan-outs
	// are multiplexed over (0 = GOMAXPROCS). Individual queries still
	// bound their own shard width with Exec.Parallelism; the pool bounds
	// the helper goroutines of the whole process.
	Workers int
	// PrepCacheBytes bounds the preprocessing cache by the resident
	// bytes of its entries — skyline and coreset indexes, sampled
	// function sets, and built instances, whose utility matrices
	// dominate. ResultCacheBytes bounds the result cache by its answers'
	// estimated bytes, and the trajectory cache, separately, by its
	// recordings' exact bytes. The least recently used entries are
	// evicted first. 0 = the default (DefaultPrepCacheBytes,
	// DefaultResultCacheBytes), negative = unbounded.
	PrepCacheBytes   int64
	ResultCacheBytes int64
}

// DefaultPrepCacheBytes and DefaultResultCacheBytes are the zero-value
// byte budgets of EngineConfig.
const (
	DefaultPrepCacheBytes   = 1 << 30
	DefaultResultCacheBytes = 64 << 20
)

// ErrUnknownDataset is returned by Engine queries naming an unregistered
// dataset.
var ErrUnknownDataset = errors.New("fam: unknown dataset")

// ErrDuplicateDataset is returned by Register when the name is taken.
var ErrDuplicateDataset = errors.New("fam: dataset already registered")

// ErrEngineClosed is returned by queries against a closed Engine.
var ErrEngineClosed = errors.New("fam: engine is closed")

// NewEngine starts an Engine. Callers own its lifecycle: Close it when
// the serving process shuts down.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{
		pool:     par.NewPool(cfg.Workers),
		prep:     ecache.NewCache(budget(cfg.PrepCacheBytes, DefaultPrepCacheBytes), prepSize),
		results:  ecache.NewCache(budget(cfg.ResultCacheBytes, DefaultResultCacheBytes), answerSize),
		trajs:    ecache.NewCache(budget(cfg.ResultCacheBytes, DefaultResultCacheBytes), trajectorySize),
		datasets: make(map[string]*registration),
		start:    time.Now(),
	}
}

// budget resolves a configured byte budget: 0 takes the default, and a
// negative budget, unbounded, passes through.
func budget(configured, def int64) int64 {
	if configured == 0 {
		return def
	}
	return configured
}

// Close releases the worker pool. In-flight queries finish (their
// remaining shard work runs inline); later queries fail with
// ErrEngineClosed. Idempotent.
func (e *Engine) Close() {
	e.closed.Store(true)
	e.pool.Close()
}

// Register adds a named dataset with its utility distribution Θ. The
// pair is immutable once registered — preprocessing artifacts are cached
// under the name, so re-registering a name is an error rather than a
// silent cache poisoning. The points are validated here, once: queries
// against the name do not re-check them, so a caller must not modify
// the dataset after registering it.
func (e *Engine) Register(name string, ds *Dataset, dist Distribution) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if name == "" {
		return fmt.Errorf("%w: dataset name must be non-empty", ErrBadOptions)
	}
	if ds == nil || dist == nil {
		return ErrNilArgument
	}
	if err := ds.Validate(); err != nil {
		return err
	}
	if d := dist.Dim(); d != 0 && d != ds.Dim() {
		return fmt.Errorf("%w: distribution dimension %d != dataset dimension %d", ErrBadOptions, d, ds.Dim())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.datasets[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateDataset, name)
	}
	e.datasets[name] = &registration{name: name, ds: ds, dist: dist}
	return nil
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name         string `json:"name"`
	N            int    `json:"n"`
	Dim          int    `json:"dim"`
	Distribution string `json:"distribution"`
}

// Datasets lists the registered datasets sorted by name.
func (e *Engine) Datasets() []DatasetInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(e.datasets))
	for _, reg := range e.datasets {
		out = append(out, DatasetInfo{
			Name:         reg.name,
			N:            reg.ds.N(),
			Dim:          reg.ds.Dim(),
			Distribution: reg.dist.Name(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (e *Engine) lookup(name string) (*registration, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	reg, ok := e.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return reg, nil
}

// resolve binds an Engine query to its registration: the Query must name
// a registered dataset and must not carry inline data.
func (e *Engine) resolve(q Query) (*registration, error) {
	if q.Data != nil || q.Dist != nil {
		return nil, fmt.Errorf("%w: Engine queries resolve data from the registry; leave Query.Data and Query.Dist nil", ErrBadOptions)
	}
	if q.Dataset == "" {
		return nil, fmt.Errorf("%w: Engine queries must name a registered dataset", ErrBadOptions)
	}
	return e.lookup(q.Dataset)
}

// answer is what the result cache stores: the pure Result plus the
// Telemetry of the execution that computed it.
type answer struct {
	res *Result
	tel *Telemetry
}

// Select answers a selection query against a registered dataset under
// the given execution policy. Cold queries build (and cache) the
// preprocessing artifacts and the result; warm queries with the same
// Fingerprint are answered from the result cache (Result.Cached = true,
// the original computation's Telemetry under Telemetry.Replay)
// regardless of their Exec, and queries that share preprocessing but
// differ in (K, Algorithm, …) skip straight to the query phase on the
// cached instance.
func (e *Engine) Select(ctx context.Context, q Query, exec Exec) (*Result, *Telemetry, error) {
	if e.closed.Load() {
		return nil, nil, ErrEngineClosed
	}
	if q.ExplicitSet != nil {
		return nil, nil, fmt.Errorf("%w: ExplicitSet makes this an evaluation query; call Evaluate", ErrBadOptions)
	}
	reg, err := e.resolve(q)
	if err != nil {
		return nil, nil, err
	}
	norm, err := deriveQuery(reg.ds, reg.dist, q, true)
	if err != nil {
		return nil, nil, err
	}
	fp, err := q.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	ctx, span := obs.Start(ctx, "engine.select")
	span.SetAttr("dataset", q.Dataset)
	span.SetAttr("algorithm", q.Algorithm.String())
	span.SetAttrInt("k", q.K)
	defer span.End()
	if err := e.admitTraced(ctx, exec); err != nil {
		return nil, nil, err
	}
	// Per-query queue-wait attribution: every helper grant of this
	// query's own fan-outs adds its enqueue-to-grant latency here, so
	// Telemetry.QueueWait is the query's wait, not an engine-wide share.
	ownWait := new(sched.WaitCounter)
	exec = exec.withWait(ownWait)
	// The requester waits under its deadline; the detached fill keeps
	// the priority class and the deadline as a soft ordering signal
	// only (a fill that outlives its triggering request is shared
	// infrastructure — completing and caching it serves the next
	// arrival).
	ctx, cancel := exec.schedContext(ctx)
	defer cancel()
	e.selects.Add(1)

	lctx, lookup := obs.Start(ctx, "cache.result")
	lookup.SetAttr("key", "res|"+fp)
	v, hit, err := e.results.Do(lctx, "res|"+fp, func(fillCtx context.Context) (any, error) {
		fillCtx = sched.NewContext(fillCtx, exec.fillAttrs())
		fillCtx, fill := obs.Start(fillCtx, "fill.result")
		defer fill.End()
		prepStart := time.Now()
		prep, err := prepare(fillCtx, e, reg.ds, reg.dist, q, norm, exec)
		if err != nil {
			return nil, err
		}
		preprocess := time.Since(prepStart)
		res, tel, err := solve(fillCtx, reg.ds, reg.dist, prep, q, exec.withPool(e.pool), e.shrink)
		if err != nil {
			return nil, err
		}
		// On a fully warm preprocessing cache this is near zero: the
		// expensive artifacts were reused, not rebuilt.
		tel.Preprocess = preprocess
		// The pool grant waits of the execution that computed this entry;
		// a hit carries it under Telemetry.Replay.
		tel.QueueWait = exec.wait.Load()
		markShared(fillCtx, fill)
		return &answer{res: res, tel: tel}, nil
	})
	lookup.SetAttrBool("hit", hit)
	lookup.End()
	if err != nil {
		return nil, nil, err
	}
	a := v.(*answer)
	res := copyResult(a.res)
	res.Cached = hit
	var tel Telemetry
	if hit {
		// A hit's own execution is the cache lookup: its timings are near
		// zero and its QueueWait is whatever the hit itself waited (no
		// fan-outs ran, so exactly its own grants — none). The filling
		// execution's Telemetry is preserved under Replay instead of being
		// reported as this query's (the pre-PR-8 behavior, which made a
		// warm hit claim the filler's QueueWait/Preprocess as its own).
		fillerTel := *a.tel
		tel = Telemetry{QueueWait: ownWait.Load(), Replay: &fillerTel}
	} else {
		tel = *a.tel
	}
	span.End()
	// The trace describes THIS execution (a hit's trace shows the lookup,
	// not the replayed fill), so it attaches after the value copy — never
	// into the cached entry.
	tel.Trace = traceOf(span)
	return res, &tel, nil
}

// shrink answers a GREEDY-SHRINK selection from the instance's recorded
// trajectory. The trajectory cache's doorkeeper admits a key on its
// second sighting; a first sighting runs the solver to K as one-shot
// Select does. Only a K whose run makes at least half of a recording's
// n-1 iterations counts as a sighting or records: a larger K reads a
// stored trajectory if there is one and otherwise runs to K, so a
// recording never costs much more than the run it replaces. A recording
// that fails (canceled, or joined from a recorder that was) falls back
// to the run to K, so it never fails a query that run would answer.
func (e *Engine) shrink(ctx context.Context, prep *prepared, k int, strategy core.Strategy) ([]int, core.ShrinkStats, bool, error) {
	in := prep.in
	key := fmt.Sprintf("traj|%s|strategy=%s|workers=%d", prep.key, strategy, in.Parallelism())
	var (
		v        any
		hit      bool
		admitted bool
		err      error
	)
	if n := in.NumPoints(); 2*(n-k) >= n-1 {
		v, hit, admitted, err = e.trajs.DoAdmitted(ctx, key, func(ctx context.Context) (any, error) {
			return core.ShrinkTrajectory(ctx, in, strategy)
		})
	} else {
		v, hit = e.trajs.Get(key)
		admitted = hit
	}
	if admitted && err == nil {
		_, span := obs.Start(ctx, "trajectory")
		span.SetAttrBool("hit", hit)
		span.SetAttrInt("k", k)
		defer span.End()
		set, stats, err := v.(*core.Trajectory).At(in, k)
		return set, stats, true, err
	}
	set, stats, err := core.GreedyShrink(ctx, in, k, strategy)
	return set, stats, false, err
}

// markShared annotates a singleflight fill span with shared=true when
// the fill served coalesced waiters beyond its own requester.
func markShared(fillCtx context.Context, span *obs.Span) {
	if span == nil {
		return
	}
	if ecache.Waiters(fillCtx) > 0 {
		span.SetAttrBool("shared", true)
	}
}

// Evaluate measures the Metrics of q.ExplicitSet against a registered
// dataset, reusing the cached sampled functions and utility matrix. It
// is bit-identical to the one-shot Evaluate with the same Query.
func (e *Engine) Evaluate(ctx context.Context, q Query, exec Exec) (Metrics, error) {
	m, _, _, err := e.evaluate(ctx, q, exec)
	return m, err
}

// evaluate is the shared evaluation path of Evaluate and SelectBatch
// members: it additionally reports the registration (for labeling batch
// slots) and a Telemetry with the preprocess/query timing split.
func (e *Engine) evaluate(ctx context.Context, q Query, exec Exec) (Metrics, *registration, *Telemetry, error) {
	if e.closed.Load() {
		return Metrics{}, nil, nil, ErrEngineClosed
	}
	reg, err := e.resolve(q)
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	norm, err := deriveQuery(reg.ds, reg.dist, q, false)
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	// Reject malformed sets before touching the caches.
	if err := core.ValidateSet(q.ExplicitSet, reg.ds.N()); err != nil {
		return Metrics{}, nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return Metrics{}, nil, nil, err
	}
	ctx, span := obs.Start(ctx, "engine.evaluate")
	span.SetAttr("dataset", q.Dataset)
	span.SetAttrInt("set", len(q.ExplicitSet))
	defer span.End()
	if err := e.admitTraced(ctx, exec); err != nil {
		return Metrics{}, nil, nil, err
	}
	// Per-query queue-wait attribution, exactly as on the Select path.
	exec = exec.withWait(new(sched.WaitCounter))
	ctx, cancel := exec.schedContext(ctx)
	defer cancel()
	e.evaluates.Add(1)
	prepStart := time.Now()
	prep, err := prepare(ctx, e, reg.ds, reg.dist, q, norm, exec)
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	tel := &Telemetry{Preprocess: time.Since(prepStart)}
	_, evalSpan := obs.Start(ctx, "evaluate")
	queryStart := time.Now()
	m, err := prep.in.Evaluate(q.ExplicitSet, nil)
	evalSpan.End()
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	tel.Query = time.Since(queryStart)
	tel.QueueWait = exec.wait.Load()
	span.End()
	tel.Trace = traceOf(span)
	return m, reg, tel, nil
}

// artifact is the Engine's artifact source: one singleflight fill per
// prep-cache key, traced by fillSpan. Fills build at full pool width
// whatever the requester's Exec — the first requester's knob must not
// throttle a build every coalesced and future query shares; output is
// bit-identical at any width, and bind applies the per-query settings.
func (e *Engine) artifact(ctx context.Context, s stage, _ Exec) (any, error) {
	v, _, err := e.prep.Do(ctx, s.key, func(fillCtx context.Context) (any, error) {
		if s.neutral {
			// A dataset-wide artifact is not one request's work, so its
			// fan-outs run at the normal class with no deadline.
			fillCtx = sched.NewContext(fillCtx, sched.Attrs{})
		}
		fillCtx, fill := e.fillSpan(fillCtx, s.key)
		defer fill.End()
		var dep any
		if s.dep != nil {
			var err error
			if dep, err = e.artifact(fillCtx, *s.dep, Exec{}); err != nil {
				return nil, err
			}
		}
		v, err := s.build(fillCtx, Exec{pool: e.pool}, dep)
		if err != nil {
			return nil, err
		}
		if s.fillAttrs {
			s.attrs(fill, v)
		}
		markShared(fillCtx, fill)
		return v, nil
	})
	return v, err
}

// bind returns a zero-copy clone of the cached instance carrying the
// query's Exec and the shared pool.
func (e *Engine) bind(in *core.Instance, exec Exec) *core.Instance {
	return in.WithExecution(exec.Parallelism, e.pool)
}

// QueueDepth reports the number of helper requests currently queued on
// the engine's shared pool — the live load signal admission control
// bounds against. Cheap enough for a health endpoint to poll.
func (e *Engine) QueueDepth() int {
	return e.pool.QueueDepth()
}

// admit applies admission control against the shared pool's grant
// queue, counting sheds.
func (e *Engine) admit(exec Exec) error {
	if err := exec.admit(e.pool.QueueDepth); err != nil {
		e.sheds.Add(1)
		return err
	}
	return nil
}

// fillSpan opens the span of one singleflight prep fill, named after
// the artifact kind ("fill.sky", "fill.funcs", "fill.coreset",
// "fill.inst") and annotated with the cache key — plus the plan-group
// key when the fill was triggered by a batch group's representative.
func (e *Engine) fillSpan(fillCtx context.Context, key string) (context.Context, *obs.Span) {
	name := "fill"
	if i := strings.IndexByte(key, '|'); i > 0 {
		name = "fill." + key[:i]
	}
	fillCtx, span := obs.Start(fillCtx, name)
	span.SetAttr("key", key)
	if g := planGroupKeyFrom(fillCtx); g != "" {
		span.SetAttr("group", g)
	}
	return fillCtx, span
}

// admitTraced is admit with the decision recorded as an "admit" span
// (shed=true when the query was rejected), so a trace shows where a
// 429 came from.
func (e *Engine) admitTraced(ctx context.Context, exec Exec) error {
	_, span := obs.Start(ctx, "admit")
	err := e.admit(exec)
	span.SetAttrBool("shed", err != nil)
	span.End()
	return err
}

// copyResult returns a deep copy so cache-stored results can never be
// mutated through a returned pointer.
func copyResult(r *Result) *Result {
	cp := *r
	cp.Indices = append([]int(nil), r.Indices...)
	cp.Labels = append([]string(nil), r.Labels...)
	cp.Metrics.Percentiles = append([]float64(nil), r.Metrics.Percentiles...)
	cp.Metrics.PercentileLevel = append([]float64(nil), r.Metrics.PercentileLevel...)
	return &cp
}

// answerSize estimates the resident bytes of one result-cache entry for
// the byte-budget eviction policy.
func answerSize(v any) int64 {
	a, ok := v.(*answer)
	if !ok {
		return 0
	}
	size := int64(256) // struct headers and scalars
	size += int64(len(a.res.Indices)) * 8
	for _, l := range a.res.Labels {
		size += int64(len(l)) + 16
	}
	size += int64(len(a.res.Metrics.Percentiles)+len(a.res.Metrics.PercentileLevel)) * 8
	return size
}

// trajectorySize reports the exact resident bytes of a recorded
// trajectory.
func trajectorySize(v any) int64 {
	if t, ok := v.(*core.Trajectory); ok {
		return t.MemoryFootprint()
	}
	return 0
}

// prepSize reports the resident bytes of one preprocessing-cache entry
// exactly: skyline and coreset indexes and candidate/weight slices by
// length, the sampled function set through utility.Footprint (each
// function's real weight-vector payload), and built instances through
// core.Instance.MemoryFootprint (the materialized N×n utility matrix
// plus the satisfaction/best-point indexes). Instances share their
// function set with the funcs|… entry, so the functions are counted
// once there and the instance entry adds only the interface headers
// referencing them.
func prepSize(v any) int64 {
	const sliceHeader = 24
	switch t := v.(type) {
	case []int: // skyline or coreset index
		return sliceHeader + int64(len(t))*8
	case []UtilityFunc: // sampled functions
		return funcsSize(t)
	case *prepared:
		size := int64(sliceHeader * 4) // struct and slice headers
		size += int64(len(t.candidates)) * 8
		size += int64(len(t.funcs)) * 16 // interface headers; payloads owned by the funcs entry
		size += int64(len(t.weights)) * 8
		if t.in != nil {
			size += t.in.MemoryFootprint()
		}
		return size
	default:
		return 0
	}
}

// funcsSize sums the exact payload bytes of a sampled function set.
func funcsSize(funcs []UtilityFunc) int64 {
	size := int64(24) + int64(len(funcs))*16 // slice + interface headers
	for _, f := range funcs {
		size += utility.Footprint(f)
	}
	return size
}

// EngineStats is a point-in-time snapshot of an Engine's serving
// counters. Each counter is individually monotonic; see Stats for the
// cross-counter consistency guarantees a snapshot carries.
type EngineStats struct {
	// Datasets is the number of registered datasets.
	Datasets int `json:"datasets"`
	// PoolWorkers is the shared pool's helper goroutine count.
	PoolWorkers int `json:"pool_workers"`
	// Selects and Evaluates count queries accepted (after validation),
	// including ones answered from the result cache.
	Selects   uint64 `json:"selects"`
	Evaluates uint64 `json:"evaluates"`
	// Batches counts SelectBatch calls accepted; BatchQueries the member
	// queries they carried (each member also counts in Selects or
	// Evaluates).
	Batches      uint64 `json:"batches"`
	BatchQueries uint64 `json:"batch_queries"`
	// Shed counts queries rejected by engine admission control: their
	// deadline had already passed on arrival, or the grant queue was
	// deeper than their MaxQueue bound. Shed queries consumed no solver
	// time and do not count in Selects/Evaluates.
	Shed uint64 `json:"shed"`
	// PlannedDedups counts batch members answered by copying another
	// member with the same Fingerprint (the planner's within-batch
	// dedup — those members never reach the solver or the counters
	// above); PlanGroups counts the instance-key groups batches were
	// planned into.
	PlannedDedups uint64 `json:"planned_dedups"`
	PlanGroups    uint64 `json:"plan_groups"`
	// PrepCache tracks the preprocessing artifacts (skyline indexes,
	// sampled function sets, coreset indexes, built instances);
	// ResultCache tracks whole query answers. Coalesced counts the
	// singleflight savings: queries that waited on an in-flight build
	// instead of duplicating it. Bytes and MaxBytes report the byte
	// budgets of EngineConfig.
	PrepCache   CacheStats `json:"prep_cache"`
	ResultCache CacheStats `json:"result_cache"`
	// TrajectoryCache tracks recorded GREEDY-SHRINK trajectories (see
	// Engine): Rejected counts first sightings that only marked a key,
	// Misses the recordings begun, Hits the answers read from a stored
	// trajectory, Bytes their exact footprint.
	TrajectoryCache CacheStats `json:"trajectory_cache"`
	// Sched reports the shared pool's grant-queue counters: the active
	// policy, grants and their summed queue wait, pool-level sheds, and
	// the current queue depth.
	Sched SchedStats `json:"sched"`
	// Uptime is the time since NewEngine.
	Uptime time.Duration `json:"uptime_ns"`
}

// CacheStats re-exports the cache counter snapshot used in EngineStats.
type CacheStats = ecache.CacheStats

// SchedStats re-exports the grant-queue counter snapshot used in
// EngineStats. Its PerClass map breaks grants, sheds, stale tickets,
// queue wait, and depth down by priority class, and DeficitGrants
// counts the starvation-relief grants where an overdue lighter class
// was served ahead of a heavier one.
type SchedStats = sched.Stats

// SchedClassStats re-exports the per-priority-class slice of the
// grant-queue counters (the values of SchedStats.PerClass).
type SchedClassStats = sched.ClassStats

// Stats returns a snapshot of the Engine's counters.
//
// Every counter is individually monotonic, but the snapshot is not one
// atomic cut: counters are loaded one at a time while queries run. Two
// guarantees are kept anyway, by ordering the increments in SelectBatch
// (member-derived counters move only after BatchQueries) and loading
// the counters here in the matching order — dependents before their
// bound:
//
//	Batches       ≤ BatchQueries (every batch carries ≥ 1 member)
//	PlannedDedups ≤ BatchQueries (only members dedup)
//	PlanGroups    ≤ BatchQueries (groups partition the members)
//
// Any other cross-counter relation (e.g. Selects vs BatchQueries) may
// be transiently off by in-flight queries; consumers needing an exact
// cut should quiesce traffic first.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	n := len(e.datasets)
	e.mu.RUnlock()
	// Load the bounded counters before their bound: a concurrent batch
	// increments BatchQueries first, so reading PlannedDedups/PlanGroups/
	// Batches earlier (never later) keeps every snapshot inside the
	// documented inequalities.
	planGroups := e.planGroups.Load()
	plannedDedups := e.plannedDedups.Load()
	batches := e.batches.Load()
	batchQueries := e.batchQueries.Load()
	return EngineStats{
		Datasets:        n,
		PoolWorkers:     e.pool.Size(),
		Selects:         e.selects.Load(),
		Evaluates:       e.evaluates.Load(),
		Batches:         batches,
		BatchQueries:    batchQueries,
		Shed:            e.sheds.Load(),
		PlannedDedups:   plannedDedups,
		PlanGroups:      planGroups,
		PrepCache:       e.prep.Stats(),
		ResultCache:     e.results.Stats(),
		TrajectoryCache: e.trajs.Stats(),
		Sched:           e.pool.SchedStats(),
		Uptime:          time.Since(e.start),
	}
}
