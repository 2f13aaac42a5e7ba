// Command fambench is the repository's benchmark. It runs one named
// workload against the public fam and serve API, checks the answers, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	fambench --workload engine-fresh-seeds --seed 7 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced for half the time, then replays the same requests through a
// pipeline of direct calls into each layer, with a span around each call,
// and reports the per-layer metrics. NOTES.md says why each workload
// exists and what its first traced breakdown showed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/par"
)

// workload is one traffic mix. A non-nil pool at set-up makes the run a
// traced one: the workload then also builds the pipeline the replay uses.
type workload interface {
	setup(ctx context.Context, seed uint64, pool *par.Pool) error
	// run drives the untraced workload for d. A closed loop runs a non-nil
	// probe between requests.
	run(ctx context.Context, d time.Duration, probe *hostProbe) (*runResult, error)
	// check compares answers of r with serial one-shot calls (and, over
	// HTTP, with the in-process Engine); it runs outside the timed window.
	check(ctx context.Context, r *runResult) error
	// replay sends requests of r through the traced pipeline, for about d,
	// and fails if any answer differs from r's.
	replay(ctx context.Context, r *runResult, d time.Duration, tr *tracer) ([]sample, error)
	close()
}

// runResult is one untraced run: its samples in request order, of which
// the first prefix are the fixed request list every run completes.
type runResult struct {
	samples []sample
	elapsed time.Duration // without the probes of a closed loop
	prefix  int
	// arr holds the ARR of the answers arr_mean averages.
	arr []float64
	// engine reports that before and after hold the serving Engine's
	// counters around the run.
	engine        bool
	before, after fam.EngineStats
}

var workloads = map[string]func() workload{
	// The skyline does most of the work of a one-shot selection here.
	"oneshot-skyline": func() workload {
		return &closedWorkload{points: 50_000, prefix: 16, k: 10, algo: fam.GreedyShrinkLazy}
	},
	// The Engine caches the skyline; a fresh sampling seed per request
	// makes every request sample, filter and materialize anew, and the
	// byte-bounded prep cache evict continuously. One client, not one per
	// CPU: two clients saturate both CPUs, and on a shared 2-CPU host
	// their p50 ranged over 43–82 ms in back-to-back runs where one
	// client's ranged over 37–46 ms.
	"engine-fresh-seeds": func() workload {
		return &closedWorkload{points: 100_000, prefix: 16, k: 10, algo: fam.GreedyShrink,
			coreset: true, engine: true, prepBytes: 128 << 20}
	},
	// Serving from warm caches: result-cache hits, solver runs on cached
	// instances, and evaluations.
	"http-warm-mix": func() workload {
		return &httpWorkload{points: 10_000, rate: 50, warmSeeds: 4}
	},
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: oneshot-skyline, engine-fresh-seeds or http-warm-mix")
	seed := flag.Uint64("seed", 1, "seed of the inputs and request lists")
	seconds := flag.Float64("seconds", 15, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay, 0 end-to-end metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory traced runs write their spans to")
	flag.Parse()
	newWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fambench: need --workload oneshot-skyline|engine-fresh-seeds|http-warm-mix, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	// Every run ends well inside the three minutes a run is allowed.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	rep, err := run(ctx, *name, newWorkload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spans)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fambench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, newWorkload func() workload, seed uint64, d time.Duration, traced bool, spansDir string) (*report, error) {
	var pool *par.Pool
	var probe *hostProbe
	reps := setupRuns
	if traced {
		pool = par.NewPool(0)
		defer pool.Close()
		reps, d = 1, d/2
	} else {
		probe = newHostProbe()
	}
	var w workload
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		w = newWorkload()
		start := time.Now()
		if err := w.setup(ctx, seed, pool); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	r, err := w.run(ctx, d, probe)
	if err != nil {
		return nil, err
	}
	// The peak is read before the check, whose reference computations
	// would otherwise count against the workload.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Attempted: len(r.samples)}
	for _, s := range r.samples {
		if s.err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "request %d failed: %v\n", s.idx, s.err)
		}
	}
	if err := w.check(ctx, r); err != nil {
		rep.Correct = false
		fmt.Fprintln(os.Stderr, "answer check failed:", err)
	}
	fixed := make([]answer, r.prefix)
	for i := range fixed {
		fixed[i] = r.samples[i].ans
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: answer digest %s over the %d fixed requests\n", name, seed, digest(fixed), r.prefix)

	if !traced {
		slow := probe.slowdown()
		fmt.Fprintf(os.Stderr, "%s seed %d: host %.3f× slower than the reference over %d probes\n", name, seed, slow, len(probe.times))
		rep.Metrics = endToEnd(r, rss, quantile(setups, 0.5), slow)
		return rep, nil
	}

	tr := newTracer()
	before := pool.SchedStats()
	replayed, err := w.replay(ctx, r, d, tr)
	after := pool.SchedStats()
	if err != nil {
		rep.Correct = false
		fmt.Fprintln(os.Stderr, "traced replay failed:", err)
		replayed = nil
	}
	rep.Attempted += len(replayed)
	tr.printTable(os.Stderr, name)
	if err := tr.write(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.Metrics = perLayer(r, replayed, tr, after.QueueWait-before.QueueWait, after.Granted-before.Granted)
	return rep, nil
}

// endToEnd computes the metrics a user of the system sees. Times are
// divided by slow, the host's slowdown against the reference (probe.go),
// and throughput is multiplied by it.
func endToEnd(r *runResult, rssMB, setupS, slow float64) map[string]metric {
	var lat []float64
	ok := 0
	for _, s := range r.samples {
		if s.err != nil {
			continue
		}
		ok++
		if !s.eval {
			lat = append(lat, ms(s.lat))
		}
	}
	qps := float64(ok) / r.elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "as measured: select_ms_p50 %.4f, select_ms_p90 %.4f, throughput_qps %.4f, setup_s %.4f\n",
		quantile(lat, 0.5), quantile(lat, 0.9), qps, setupS)
	return map[string]metric{
		"select_ms_p50":  {quantile(lat, 0.5) / slow, "ms"},
		"select_ms_p90":  {quantile(lat, 0.9) / slow, "ms"},
		"throughput_qps": {qps * slow, "1/s"},
		"success_rate":   {float64(ok) / float64(len(r.samples)), "ratio"},
		"arr_mean":       {mean(r.arr), "ratio"},
		"rss_peak_mb":    {rssMB, "MiB"},
		"setup_s":        {setupS / slow, "s"},
	}
}

// perLayer computes the per-layer metrics from the untraced run r, its
// traced replay and the pipeline pool's grant counters over the replay.
// Times are means per replayed request unless named as a quantile; work
// counts are means over the fixed request list, so they repeat exactly at
// a given seed.
func perLayer(r *runResult, replayed []sample, tr *tracer, wait time.Duration, grants uint64) map[string]metric {
	self, n := tr.selfTimes()
	perReq := func(name string) float64 {
		if n == 0 {
			return 0
		}
		return ms(self[name]) / float64(n)
	}
	var total counters
	var skySize, fixed int64
	var pre, query, gap, overhead []float64
	for _, s := range replayed {
		if s.idx < r.prefix {
			total.add(s.cnt)
			skySize = max(skySize, s.cnt.skylineSize)
			fixed++
		}
		if s.tel != nil {
			pre = append(pre, ms(s.tel.Preprocess))
			query = append(query, ms(s.tel.Query))
		}
		gap = append(gap, ms(s.inproc-s.root))
		overhead = append(overhead, ms(r.samples[s.idx].svc-s.inproc))
	}
	perFixed := func(v int64) float64 {
		if fixed == 0 {
			return 0
		}
		return float64(v) / float64(fixed)
	}
	var keep float64
	if total.coresetIn > 0 {
		keep = float64(total.coresetOut) / float64(total.coresetIn)
	}
	var late []float64
	for _, s := range r.samples {
		late = append(late, ms(s.late))
	}
	var resultHit, prepHit, evictions, prepBytes float64
	if r.engine {
		b, a := r.before, r.after
		resultHit = rate(a.ResultCache.Hits-b.ResultCache.Hits, a.ResultCache.Misses-b.ResultCache.Misses)
		prepHit = rate(a.PrepCache.Hits-b.PrepCache.Hits, a.PrepCache.Misses-b.PrepCache.Misses)
		evictions = float64(a.PrepCache.Evictions-b.PrepCache.Evictions) / float64(len(r.samples))
		prepBytes = float64(a.PrepCache.Bytes)
	}
	var waitMS, grantsPerReq float64
	if len(replayed) > 0 {
		waitMS = ms(wait) / float64(len(replayed))
		grantsPerReq = float64(grants) / float64(len(replayed))
	}
	return map[string]metric{
		"skyline.ms":             {perReq("skyline"), "ms"},
		"skyline.size":           {float64(skySize), "count"},
		"sampling.ms":            {perReq("sampling"), "ms"},
		"coreset.ms":             {perReq("coreset"), "ms"},
		"coreset.in":             {perFixed(total.coresetIn), "count"},
		"coreset.out":            {perFixed(total.coresetOut), "count"},
		"coreset.keep_ratio":     {keep, "ratio"},
		"core.materialize_ms":    {perReq("core.materialize"), "ms"},
		"core.utility_evals":     {perFixed(total.utilityEvals), "count"},
		"core.matrix_bytes":      {perFixed(total.matrixBytes), "bytes"},
		"core.solve_ms":          {perReq("core.solve"), "ms"},
		"core.solve_evals":       {perFixed(total.solveEvals), "count"},
		"core.evaluate_ms":       {perReq("core.evaluate"), "ms"},
		"engine.result_hit_rate": {resultHit, "ratio"},
		"engine.prep_hit_rate":   {prepHit, "ratio"},
		"engine.prep_evictions":  {evictions, "count"},
		"engine.prep_bytes":      {prepBytes, "bytes"},
		"serve.overhead_ms":      {quantile(overhead, 0.5), "ms"},
		"par.queue_wait_ms":      {waitMS, "ms"},
		"par.grants":             {grantsPerReq, "count"},
		"fam.preprocess_ms":      {mean(pre), "ms"},
		"fam.query_ms":           {mean(query), "ms"},
		"load.late_ms_p90":       {quantile(late, 0.9), "ms"},
		"trace.gap_ms":           {quantile(gap, 0.5), "ms"},
	}
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
