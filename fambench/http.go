package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/serve"
)

// httpWorkload is an open loop of /v1/select and /v1/evaluate requests
// against serve.NewHandler over loopback. The Engine behind it is warmed
// at set-up, so selections either repeat a warmed fingerprint (a result
// cache hit) or run the solver on a cached instance.
type httpWorkload struct {
	points int
	rate   float64 // requests per second
	// warmSeeds sampling seeds are pre-warmed; selections and evaluations
	// use only these.
	warmSeeds int

	seed   uint64
	ds     *fam.Dataset
	dist   fam.Distribution
	eng    *fam.Engine
	srv    *httptest.Server
	client *http.Client
	warm   []fam.Query // the pre-warmed selections
	// warmEval is the evaluation that builds the evaluation instance at
	// set-up.
	warmEval fam.Query
	fresh    []fam.Query // never-warmed selections, in the order runs draw them
	reqs     []fam.Query // the run's request list
	kinds    []int       // the kind of each request

	// Traced runs only: an identically warmed in-process twin of eng and
	// the pipeline, both fed the same requests as the HTTP run.
	twin *fam.Engine
	pipe *pipeline
}

const (
	evalShare = 0.2 // share of requests that are evaluations
	warmShare = 0.7 // share of selections that repeat a warmed fingerprint
)

// The kinds of request.
const (
	freshSelect = iota
	warmSelect
	evaluation
)

var (
	warmKs    = []int{5, 10, 20}
	warmAlgos = []fam.Algorithm{fam.GreedyShrink, fam.GreedyAdd}
	// Fresh selections draw (seed, K, algorithm) without replacement, so
	// every one is a result-cache miss and the hit share does not drift
	// with run length. They leave out GreedyAdd, which costs 3–5× a
	// shrink here and would put the miss mode's tail at the mercy of the
	// draw.
	freshKMax  = 60
	freshAlgos = []fam.Algorithm{fam.GreedyShrink, fam.GreedyShrinkLazy}
)

func (w *httpWorkload) setup(ctx context.Context, seed uint64, pool *par.Pool) error {
	w.seed = seed
	w.ds = anticorrelated(w.points, 4, dataSeed)
	dist, err := fam.UniformLinear(4)
	if err != nil {
		return err
	}
	w.dist = dist

	type selection struct {
		seed uint64
		k    int
		algo fam.Algorithm
	}
	warmed := make(map[selection]bool)
	for j := 0; j < w.warmSeeds; j++ {
		for _, k := range warmKs {
			for _, a := range warmAlgos {
				q := fam.Query{Dataset: datasetName, K: k, Algorithm: a, Seed: requestSeed(seed, -1-j)}
				w.warm = append(w.warm, q)
				warmed[selection{q.Seed, k, a}] = true
			}
		}
	}
	for j := 0; j < w.warmSeeds; j++ {
		for k := 2; k <= freshKMax; k++ {
			for _, a := range freshAlgos {
				if q := (fam.Query{Dataset: datasetName, K: k, Algorithm: a, Seed: requestSeed(seed, -1-j)}); !warmed[selection{q.Seed, k, a}] {
					w.fresh = append(w.fresh, q)
				}
			}
		}
	}
	r := newRand(seed, 2)
	r.Shuffle(len(w.fresh), func(i, j int) { w.fresh[i], w.fresh[j] = w.fresh[j], w.fresh[i] })
	w.warmEval = w.evalQuery(r)

	if w.eng, err = w.warmEngine(ctx); err != nil {
		return err
	}
	w.srv = httptest.NewServer(serve.NewHandler(w.eng))
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	if pool == nil {
		return nil
	}
	if w.twin, err = w.warmEngine(ctx); err != nil {
		return err
	}
	sky, err := skyline.ComputeOpts(ctx, w.ds.Points, skyline.ComputeOptions{Pool: pool})
	if err != nil {
		return err
	}
	w.pipe = newPipeline(w.ds, w.dist, pool, sky, true)
	rt := newTracer().request(-1)
	for _, q := range append([]fam.Query{w.warmEval}, w.warm...) {
		if _, _, err := w.pipe.do(ctx, rt, q); err != nil {
			return err
		}
	}
	return nil
}

// warmEngine builds an Engine with every warmed selection answered and
// the evaluation instance built. The prep cache gets a byte budget it
// never reaches, only so that it accounts its bytes.
func (w *httpWorkload) warmEngine(ctx context.Context) (*fam.Engine, error) {
	eng := fam.NewEngine(fam.EngineConfig{PrepCacheBytes: 4 << 30})
	if err := eng.Register(datasetName, w.ds, w.dist); err != nil {
		return nil, err
	}
	for _, q := range append([]fam.Query{w.warmEval}, w.warm...) {
		if s := inProcess(ctx, eng, q); s.err != nil {
			return nil, fmt.Errorf("pre-warm: %w", s.err)
		}
		// Collecting after each fill makes the warm-up's peak resident
		// size the same in every run. Left to the pacer, the collector
		// ran at different points of the warm-up, and rss_peak_mb read
		// either about 166 or about 218 MiB.
		runtime.GC()
	}
	return eng, nil
}

// evalQuery draws an evaluation of 5 to 20 distinct rows under the first
// warmed seed.
func (w *httpWorkload) evalQuery(r *rand.Rand) fam.Query {
	set := make([]int, 0, 20)
	for n := 5 + r.IntN(16); len(set) < n; {
		if row := r.IntN(w.points); !contains(set, row) {
			set = append(set, row)
		}
	}
	sort.Ints(set)
	return fam.Query{Dataset: datasetName, Seed: requestSeed(w.seed, -1), ExplicitSet: set}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// schedule builds the request list and due times of a run of length d:
// round(rate·d) arrivals placed uniformly at random in [0, d), which is a
// Poisson process conditioned on its count. The shares of evaluations,
// warmed and fresh selections are exact, only their order is drawn: a
// drawn share would move the latency quantiles, which sit on the
// boundary between the hit and miss modes.
func (w *httpWorkload) schedule(d time.Duration) ([]time.Duration, error) {
	r := newRand(w.seed, 3)
	n := int(math.Round(w.rate * d.Seconds()))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(r.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	evals := int(math.Round(evalShare * float64(n)))
	warm := int(math.Round(warmShare * float64(n-evals)))
	if n-evals-warm > len(w.fresh) {
		return nil, fmt.Errorf("a %v run needs more than the %d fresh selections", d, len(w.fresh))
	}
	w.kinds = make([]int, n)
	for i := range w.kinds[:evals+warm] {
		w.kinds[i] = warmSelect
		if i < evals {
			w.kinds[i] = evaluation
		}
	}
	r.Shuffle(n, func(i, j int) { w.kinds[i], w.kinds[j] = w.kinds[j], w.kinds[i] })
	w.reqs = make([]fam.Query, n)
	fresh := 0
	for i, kind := range w.kinds {
		switch kind {
		case evaluation:
			w.reqs[i] = w.evalQuery(r)
		case warmSelect:
			w.reqs[i] = w.warm[r.IntN(len(w.warm))]
		default:
			w.reqs[i] = w.fresh[fresh]
			fresh++
		}
	}
	return due, nil
}

// run runs no probe, so its times are reported as measured. At this rate
// the latencies are mostly wake-ups and loopback round trips, and across
// runs they did not follow the probe's slowdowns (NOTES.md).
func (w *httpWorkload) run(ctx context.Context, d time.Duration, _ *hostProbe) (*runResult, error) {
	due, err := w.schedule(d)
	if err != nil {
		return nil, err
	}
	r := &runResult{prefix: len(due), engine: true, before: w.eng.Stats()}
	r.samples, r.elapsed = openLoop(ctx, due, w.do)
	r.after = w.eng.Stats()
	// arr_mean is taken over the warmed selections: the same 24 queries
	// at every seed, where the drawn mix of K would swamp it (ARR falls
	// from ~0.08 at K=2 to 0 past K≈40).
	for _, q := range w.warm {
		s := inProcess(ctx, w.eng, q)
		if s.err != nil {
			return nil, s.err
		}
		r.arr = append(r.arr, s.ans.arr)
	}
	return r, ctx.Err()
}

func (w *httpWorkload) do(ctx context.Context, i int) sample {
	q := w.reqs[i]
	s := sample{eval: q.ExplicitSet != nil}
	if s.eval {
		var resp serve.EvaluateResponse
		s.err = w.post(ctx, "/v1/evaluate", serve.EvaluateRequest{Dataset: q.Dataset, Set: q.ExplicitSet, Seed: q.Seed}, &resp)
		s.ans = answer{indices: resp.Set, arr: resp.Metrics.ARR}
	} else {
		var resp serve.SelectResponse
		s.err = w.post(ctx, "/v1/select", serve.SelectRequest{Dataset: q.Dataset, K: q.K, Algorithm: q.Algorithm.String(), Seed: q.Seed}, &resp)
		s.ans = answer{indices: resp.Indices, arr: resp.Metrics.ARR}
	}
	return s
}

func (w *httpWorkload) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.srv.URL+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Drained bodies let the transport reuse the connection.
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// inProcess answers q with eng directly.
func inProcess(ctx context.Context, eng *fam.Engine, q fam.Query) sample {
	if q.ExplicitSet != nil {
		start := time.Now()
		m, err := eng.Evaluate(ctx, q, fam.Exec{})
		// Engine.Evaluate returns no Telemetry; its latency is all query
		// time on a cached instance.
		return sample{eval: true, ans: answer{indices: q.ExplicitSet, arr: m.ARR}, err: err,
			tel: &fam.Telemetry{Query: time.Since(start)}}
	}
	res, tel, err := eng.Select(ctx, q, fam.Exec{})
	if err != nil {
		return sample{err: err}
	}
	return sample{ans: answer{indices: res.Indices, arr: res.Metrics.ARR}, tel: tel}
}

// check compares every HTTP answer with the in-process answer of a
// reference Engine built here, which computes each answer anew instead of
// reading the serving Engine's result cache. Then it recomputes the first
// two warmed and fresh selections and the first evaluation with serial
// one-shot calls.
func (w *httpWorkload) check(ctx context.Context, r *runResult) error {
	ref := fam.NewEngine(fam.EngineConfig{})
	defer ref.Close()
	if err := ref.Register(datasetName, w.ds, w.dist); err != nil {
		return err
	}
	for i, q := range w.reqs {
		got := r.samples[i]
		if got.err != nil {
			continue // counted as failed
		}
		if want := inProcess(ctx, ref, q); want.err != nil || !got.ans.equal(want.ans) {
			return fmt.Errorf("request %d: HTTP answered %v, the Engine %v (%v)", i, got.ans, want.ans, want.err)
		}
	}
	left := map[int]int{warmSelect: 2, freshSelect: 2, evaluation: 1}
	for i, q := range w.reqs {
		kind := w.kinds[i]
		if left[kind] == 0 || r.samples[i].err != nil {
			continue
		}
		left[kind]--
		one := q
		one.Dataset, one.Data, one.Dist = "", w.ds, w.dist
		var want answer
		if kind == evaluation {
			m, err := fam.Evaluate(ctx, one, fam.Exec{Parallelism: 1})
			if err != nil {
				return fmt.Errorf("request %d: serial one-shot evaluate: %w", i, err)
			}
			want = answer{indices: q.ExplicitSet, arr: m.ARR}
		} else {
			res, _, err := fam.Select(ctx, one, fam.Exec{Parallelism: 1})
			if err != nil {
				return fmt.Errorf("request %d: serial one-shot select: %w", i, err)
			}
			want = answer{indices: res.Indices, arr: res.Metrics.ARR}
		}
		if !r.samples[i].ans.equal(want) {
			return fmt.Errorf("request %d: answered %v, serial one-shot call answers %v", i, r.samples[i].ans, want)
		}
	}
	return nil
}

// replay sends the run's whole request list, in order, first to the
// in-process twin Engine (the untraced in-process latency) and then
// through the traced pipeline, and checks both answers against the HTTP
// run's.
func (w *httpWorkload) replay(ctx context.Context, r *runResult, _ time.Duration, tr *tracer) ([]sample, error) {
	out := make([]sample, len(w.reqs))
	for i, q := range w.reqs {
		start := time.Now()
		in := inProcess(ctx, w.twin, q)
		in.inproc = time.Since(start)
		rt := tr.request(i)
		a, c, err := w.pipe.do(ctx, rt, q)
		rt.finish()
		if in.err != nil || err != nil {
			return nil, fmt.Errorf("replay of request %d: engine: %v, pipeline: %v", i, in.err, err)
		}
		if want := r.samples[i].ans; !in.ans.equal(want) || !a.equal(want) {
			return nil, fmt.Errorf("replay of request %d: engine %v and pipeline %v, HTTP answered %v", i, in.ans, a, want)
		}
		in.idx, in.root, in.cnt = i, rt.root(), c
		out[i] = in
	}
	return out, nil
}

func (w *httpWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	for _, e := range []*fam.Engine{w.eng, w.twin} {
		if e != nil {
			e.Close()
		}
	}
}
