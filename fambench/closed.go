package main

import (
	"context"
	"fmt"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/skyline"
)

// closedWorkload is a closed loop of selection requests from one client,
// each with a fresh sampling seed, served by one-shot fam.Select or by a
// warmed fam.Engine.
type closedWorkload struct {
	points int
	// prefix is the number of leading requests every run completes: the
	// fixed request list behind arr_mean, the answer digest and the work
	// counters. check compares its first and last answer with serial
	// one-shot selections.
	prefix  int
	k       int
	algo    fam.Algorithm
	coreset bool
	// engine serves the requests from a fam.Engine whose prep cache holds
	// at most prepBytes; otherwise every request is a one-shot fam.Select.
	engine    bool
	prepBytes int64

	seed uint64
	ds   *fam.Dataset
	dist fam.Distribution
	eng  *fam.Engine
	pipe *pipeline // traced runs only
}

const datasetName = "bench"

func (w *closedWorkload) query(i int) fam.Query {
	q := fam.Query{K: w.k, Algorithm: w.algo, Seed: requestSeed(w.seed, i), Coreset: w.coreset}
	if w.engine {
		q.Dataset = datasetName
	} else {
		q.Data, q.Dist = w.ds, w.dist
	}
	return q
}

func (w *closedWorkload) setup(ctx context.Context, seed uint64, pool *par.Pool) error {
	w.seed = seed
	w.ds = anticorrelated(w.points, 4, dataSeed)
	dist, err := fam.UniformLinear(4)
	if err != nil {
		return err
	}
	w.dist = dist
	if w.engine {
		w.eng = fam.NewEngine(fam.EngineConfig{PrepCacheBytes: w.prepBytes})
		if err := w.eng.Register(datasetName, w.ds, w.dist); err != nil {
			return err
		}
	}
	// The warm-up request computes the skyline (cached by the Engine) and
	// grows the heap before anything is timed.
	if s := w.do(ctx, -1); s.err != nil {
		return fmt.Errorf("warm-up: %w", s.err)
	}
	if pool != nil {
		var sky []int
		if w.engine {
			if sky, err = skyline.ComputeOpts(ctx, w.ds.Points, skyline.ComputeOptions{Pool: pool}); err != nil {
				return err
			}
		}
		w.pipe = newPipeline(w.ds, w.dist, pool, sky, false)
	}
	return nil
}

func (w *closedWorkload) do(ctx context.Context, i int) sample {
	var (
		res *fam.Result
		tel *fam.Telemetry
		err error
	)
	if w.engine {
		res, tel, err = w.eng.Select(ctx, w.query(i), fam.Exec{})
	} else {
		res, tel, err = fam.Select(ctx, w.query(i), fam.Exec{})
	}
	if err != nil {
		return sample{err: err}
	}
	return sample{ans: answer{indices: res.Indices, arr: res.Metrics.ARR}, tel: tel}
}

func (w *closedWorkload) run(ctx context.Context, d time.Duration, probe *hostProbe) (*runResult, error) {
	r := &runResult{prefix: w.prefix}
	if w.engine {
		r.before = w.eng.Stats()
	}
	r.samples, r.elapsed = closedLoop(ctx, w.prefix, -1, d, probe, w.do)
	if w.engine {
		r.after = w.eng.Stats()
		r.engine = true
	}
	if len(r.samples) < w.prefix {
		return nil, fmt.Errorf("run ended after %d of the %d fixed requests: %v", len(r.samples), w.prefix, ctx.Err())
	}
	for _, s := range r.samples[:w.prefix] {
		r.arr = append(r.arr, s.ans.arr)
	}
	return r, nil
}

// check recomputes the first and last answer of the fixed request list
// with a serial one-shot fam.Select.
func (w *closedWorkload) check(ctx context.Context, r *runResult) error {
	for _, i := range []int{0, w.prefix - 1} {
		q := w.query(i)
		q.Dataset, q.Data, q.Dist = "", w.ds, w.dist
		res, _, err := fam.Select(ctx, q, fam.Exec{Parallelism: 1})
		if err != nil {
			return fmt.Errorf("request %d: serial one-shot select: %w", i, err)
		}
		want := answer{indices: res.Indices, arr: res.Metrics.ARR}
		if got := r.samples[i].ans; !got.equal(want) {
			return fmt.Errorf("request %d: answered %v, serial one-shot select answers %v", i, got, want)
		}
	}
	return nil
}

// replay sends the run's requests, in order, through the traced pipeline
// until d has elapsed (and at least the fixed list), and checks every
// answer against the run's.
func (w *closedWorkload) replay(ctx context.Context, r *runResult, d time.Duration, tr *tracer) ([]sample, error) {
	out, _ := closedLoop(ctx, w.prefix, len(r.samples), d, nil, func(ctx context.Context, i int) sample {
		rt := tr.request(i)
		a, c, err := w.pipe.do(ctx, rt, w.query(i))
		rt.finish()
		u := r.samples[i]
		return sample{ans: a, err: err, cnt: c, root: rt.root(), inproc: u.svc, tel: u.tel}
	})
	for _, s := range out {
		if s.err != nil {
			return nil, fmt.Errorf("replay of request %d: %w", s.idx, s.err)
		}
		if want := r.samples[s.idx].ans; !s.ans.equal(want) {
			return nil, fmt.Errorf("replay of request %d: pipeline answered %v, the library %v", s.idx, s.ans, want)
		}
	}
	return out, nil
}

func (w *closedWorkload) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}
