package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/coreset"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/internal/utility"
)

// sampleSize is the number of sampled utility functions of every query:
// the library default N = ⌈3·ln(1/σ)/ε²⌉ at ε = σ = 0.1.
const sampleSize = 691

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the enclosing span within the request, −1 for the
// request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every finished request's spans in memory until the run
// writes them out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reqTrace records the spans of one request on one goroutine.
type reqTrace struct {
	t     *tracer
	req   int
	spans []span
}

func (t *tracer) request(req int) *reqTrace { return &reqTrace{t: t, req: req} }

func (r *reqTrace) begin(name string, parent int) int {
	r.spans = append(r.spans, span{Req: r.req, ID: len(r.spans), Parent: parent, Name: name,
		Start: int64(time.Since(r.t.epoch))})
	return len(r.spans) - 1
}

func (r *reqTrace) end(id int) { r.spans[id].End = int64(time.Since(r.t.epoch)) }

// root returns the duration of the request's root span.
func (r *reqTrace) root() time.Duration { return time.Duration(r.spans[0].End - r.spans[0].Start) }

func (r *reqTrace) finish() {
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.spans...)
	r.t.mu.Unlock()
}

// selfTimes returns each span name's self time — its duration minus the
// part its children cover — summed over all recorded requests, and the
// number of requests.
func (t *tracer) selfTimes() (map[string]time.Duration, int) {
	type key struct{ req, id int }
	child := make(map[key]int64)
	reqs := make(map[int]bool)
	for _, s := range t.spans {
		reqs[s.Req] = true
		if s.Parent >= 0 {
			child[key{s.Req, s.Parent}] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[key{s.Req, s.ID}])
	}
	return self, len(reqs)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printTable writes the per-layer self-time table: mean self time per
// request and its share of the mean root span.
func (t *tracer) printTable(w io.Writer, title string) {
	self, n := t.selfTimes()
	if n == 0 {
		return
	}
	var total time.Duration
	names := make([]string, 0, len(self))
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%s: self time per request over %d traced requests\n", title, n)
	for _, name := range names {
		fmt.Fprintf(w, "  %-18s %10.3f ms %6.1f%%\n", name, ms(self[name])/float64(n), 100*float64(self[name])/float64(total))
	}
}

// counters are one request's machine-independent work counts.
type counters struct {
	skylineSize  int64 // candidates after the skyline stage
	coresetIn    int64
	coresetOut   int64
	utilityEvals int64 // f.Value calls: N·m per coreset filter and per materialized instance
	matrixBytes  int64 // resident bytes of instances materialized by this request
	solveEvals   int64 // ShrinkStats.Evaluations
}

func (c *counters) add(o counters) {
	c.skylineSize += o.skylineSize
	c.coresetIn += o.coresetIn
	c.coresetOut += o.coresetOut
	c.utilityEvals += o.utilityEvals
	c.matrixBytes += o.matrixBytes
	c.solveEvals += o.solveEvals
}

// pipeline answers queries by calling the layer functions that fam.Select
// and fam.Engine compose — skyline, sampling, coreset, core — directly, so
// that each call gets its own span. It repeats the library's stage order
// and guards; every answer it gives is compared with the library's answer
// to the same request, so a pipeline that drifts from the library fails
// the run instead of reporting a stale breakdown.
//
// With memo set it stands in for the Engine's caches: sampled functions,
// instances and results are kept per key. A memoizing pipeline is used
// from one goroutine only.
type pipeline struct {
	pts  [][]float64
	dist utility.Distribution
	pool *par.Pool
	// sky is the skyline computed at set-up (the Engine's cached skyline);
	// nil computes it per request, as one-shot Select does.
	sky  []int
	memo bool

	funcs   map[uint64][]utility.Func
	insts   map[string]*core.Instance
	results map[string]answer
}

func newPipeline(ds *fam.Dataset, dist fam.Distribution, pool *par.Pool, sky []int, memo bool) *pipeline {
	p := &pipeline{pts: ds.Points, dist: dist, pool: pool, sky: sky, memo: memo}
	if memo {
		p.funcs = make(map[uint64][]utility.Func)
		p.insts = make(map[string]*core.Instance)
		p.results = make(map[string]answer)
	}
	return p
}

// do answers one selection or evaluation query.
func (p *pipeline) do(ctx context.Context, rt *reqTrace, q fam.Query) (answer, counters, error) {
	root := rt.begin("fam", -1)
	defer rt.end(root)
	if q.ExplicitSet != nil {
		return p.evaluate(rt, root, q)
	}
	return p.selectSet(ctx, rt, root, q)
}

func (p *pipeline) selectSet(ctx context.Context, rt *reqTrace, root int, q fam.Query) (answer, counters, error) {
	var (
		c   counters
		key string
		err error
	)
	if p.memo {
		s := rt.begin("engine", root)
		key, err = q.Fingerprint()
		a, ok := p.results[key]
		rt.end(s)
		if err != nil || ok {
			return a, c, err
		}
	}

	s := rt.begin("skyline", root)
	cand := p.sky
	if cand == nil {
		cand, err = skyline.ComputeOpts(ctx, p.pts, skyline.ComputeOptions{Pool: p.pool})
	}
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}
	c.skylineSize = int64(len(cand))
	class := "sky"
	if len(cand) <= q.K {
		cand, class = identity(len(p.pts)), "full"
	}

	s = rt.begin("sampling", root)
	funcs, err := p.sample(q.Seed)
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}

	s = rt.begin("coreset", root)
	if q.Coreset {
		c.coresetIn = int64(len(cand))
		c.utilityEvals += int64(len(cand)) * int64(len(funcs))
		var cs []int
		cs, err = coreset.Filter(ctx, p.pts, cand, funcs, coreset.Options{Eps: fam.DefaultCoresetEps, Pool: p.pool})
		if err == nil && len(cs) > q.K {
			cand, class = cs, class+"+cs"
		}
		c.coresetOut = int64(len(cand))
	}
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}

	s = rt.begin("core.materialize", root)
	in, built, err := p.instance(q.Seed, class, cand, funcs)
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}
	if built {
		c.utilityEvals += int64(len(cand)) * int64(len(funcs))
		c.matrixBytes = in.MemoryFootprint()
	}

	s = rt.begin("core.solve", root)
	local, stats, err := solve(ctx, in, q)
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}
	c.solveEvals = int64(stats.Evaluations)

	s = rt.begin("core.evaluate", root)
	m, err := in.Evaluate(local, nil)
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}
	a := answer{indices: make([]int, len(local)), arr: m.ARR}
	for i, l := range local {
		a.indices[i] = cand[l]
	}
	if p.memo {
		s = rt.begin("engine", root)
		p.results[key] = a
		rt.end(s)
	}
	return a, c, nil
}

// evaluate scores an explicit set over the full dataset: evaluation
// queries skip the skyline restriction and the coreset.
func (p *pipeline) evaluate(rt *reqTrace, root int, q fam.Query) (answer, counters, error) {
	var c counters
	s := rt.begin("sampling", root)
	funcs, err := p.sample(q.Seed)
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}
	s = rt.begin("core.materialize", root)
	in, built, err := p.instance(q.Seed, "full", identity(len(p.pts)), funcs)
	rt.end(s)
	if err != nil {
		return answer{}, c, err
	}
	if built {
		c.utilityEvals = int64(len(p.pts)) * int64(len(funcs))
		c.matrixBytes = in.MemoryFootprint()
	}
	s = rt.begin("core.evaluate", root)
	m, err := in.Evaluate(q.ExplicitSet, nil)
	rt.end(s)
	return answer{indices: q.ExplicitSet, arr: m.ARR}, c, err
}

func (p *pipeline) sample(seed uint64) ([]utility.Func, error) {
	if f, ok := p.funcs[seed]; ok {
		return f, nil
	}
	f, err := sampling.Sample(p.dist, sampleSize, rng.New(seed))
	if err == nil && p.memo {
		p.funcs[seed] = f
	}
	return f, err
}

// instance materializes the utility matrix of the candidates; built
// reports whether it was built now rather than taken from the memo.
func (p *pipeline) instance(seed uint64, class string, cand []int, funcs []utility.Func) (in *core.Instance, built bool, err error) {
	key := fmt.Sprintf("%d|%s", seed, class)
	if in, ok := p.insts[key]; ok {
		return in, false, nil
	}
	pts := p.pts
	if len(cand) != len(p.pts) {
		pts = make([][]float64, len(cand))
		for i, c := range cand {
			pts[i] = p.pts[c]
		}
	}
	in, err = core.NewInstance(pts, funcs, core.Options{Pool: p.pool})
	if err == nil && p.memo {
		p.insts[key] = in
	}
	return in, err == nil, err
}

// solve runs the query's solver; the benchmark's workloads use only these
// three.
func solve(ctx context.Context, in *core.Instance, q fam.Query) ([]int, core.ShrinkStats, error) {
	switch q.Algorithm {
	case fam.GreedyShrink:
		return core.GreedyShrink(ctx, in, q.K, core.StrategyDelta)
	case fam.GreedyShrinkLazy:
		return core.GreedyShrink(ctx, in, q.K, core.StrategyLazy)
	case fam.GreedyAdd:
		return core.GreedyAdd(ctx, in, q.K)
	default:
		return nil, core.ShrinkStats{}, fmt.Errorf("pipeline: algorithm %s is not decomposed", q.Algorithm)
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
