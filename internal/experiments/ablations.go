package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/regretlab/fam/internal/baseline"
	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/dataset"
	"github.com/regretlab/fam/internal/geom"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/internal/utility"
)

func init() {
	register(Runner{
		ID:          "ablation1",
		Description: "GREEDY-SHRINK evaluation strategies (naive vs lazy vs delta): query time, identical output (A1)",
		Run:         runAblation1,
	})
	register(Runner{
		ID:          "ablation2",
		Description: "Improvements 1 and 2 work counters: fraction of users rescanned, candidates re-evaluated (A2)",
		Run:         runAblation2,
	})
	register(Runner{
		ID:          "ablation3",
		Description: "Closed-form vs adaptive-Simpson integration in the 2-d machinery (A3)",
		Run:         runAblation3,
	})
	register(Runner{
		ID:          "ablation4",
		Description: "Skyline preprocessing on/off for GREEDY-SHRINK (A4)",
		Run:         runAblation4,
	})
	register(Runner{
		ID:          "ablation5",
		Description: "LP-exact vs sampled MRR-GREEDY: sets, max regret ratio, time (A5)",
		Run:         runAblation5,
	})
	register(Runner{
		ID:          "ablation6",
		Description: "Greedy removal (GREEDY-SHRINK) vs greedy insertion (GREEDY-ADD): arr and query time across k (A6)",
		Run:         runAblation6,
	})
}

func ablationPrep(cfg Config) (*prep, error) {
	n, N := 2000, 5000
	if cfg.Scale == ScaleBench {
		n, N = 400, 1000
	} else if cfg.Scale == ScalePaper {
		n, N = 10000, 10000
	}
	ds, err := dataset.SimulatedHousehold(n, cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	dist, err := utility.NewUniformSimplexLinear(ds.Dim())
	if err != nil {
		return nil, err
	}
	return newPrep(ds, dist, N, cfg.Seed+42, cfg)
}

func runAblation1(ctx context.Context, cfg Config) ([]*Table, error) {
	p, err := ablationPrep(cfg)
	if err != nil {
		return nil, err
	}
	const k = 10
	t := &Table{
		ID:     "ablation1",
		Title:  fmt.Sprintf("GREEDY-SHRINK strategies on Household stand-in (candidates=%d, N=%d, k=%d)", len(p.candidates), p.in.NumFuncs(), k),
		Header: []string{"strategy", "query s", "arr", "evaluations", "user rescans"},
	}
	var refARR float64
	for i, s := range []core.Strategy{core.StrategyNaive, core.StrategyLazy, core.StrategyDelta} {
		start := timeNow()
		set, stats, err := core.GreedyShrink(ctx, p.in, k, s)
		if err != nil {
			return nil, err
		}
		elapsed := timeSince(start)
		arr, err := p.in.ARR(set)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			refARR = arr
		} else if math.Abs(arr-refARR) > 1e-9 {
			return nil, fmt.Errorf("experiments: strategy %v arr %v != reference %v", s, arr, refARR)
		}
		t.Rows = append(t.Rows, []string{
			s.String(), secs(elapsed), f4(arr), itoa(stats.Evaluations), itoa(stats.UserRescans),
		})
	}
	return []*Table{t}, nil
}

func runAblation2(ctx context.Context, cfg Config) ([]*Table, error) {
	p, err := ablationPrep(cfg)
	if err != nil {
		return nil, err
	}
	const k = 10
	_, stats, err := core.GreedyShrink(ctx, p.in, k, core.StrategyLazy)
	if err != nil {
		return nil, err
	}
	iters := stats.Iterations
	if iters == 0 {
		iters = 1
	}
	evalFrac := float64(stats.Evaluations) / float64(stats.CandidateTotal)
	rescanPerIter := float64(stats.UserRescans) / float64(iters)
	userFrac := rescanPerIter / float64(p.in.NumFuncs())
	t := &Table{
		ID:     "ablation2",
		Title:  "lazy GREEDY-SHRINK work counters (the paper reports ≈68% of candidates and ≈1% of users per iteration)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"iterations", itoa(stats.Iterations)},
			{"candidate evaluations", itoa(stats.Evaluations)},
			{"candidates skipped by bounds", itoa(stats.EvalSkipped)},
			{"fraction of candidates evaluated", f4(evalFrac)},
			{"user rescans per iteration", f2(rescanPerIter)},
			{"fraction of users rescanned per iteration", f4(userFrac)},
		},
	}
	return []*Table{t}, nil
}

func runAblation3(ctx context.Context, cfg Config) ([]*Table, error) {
	trials := 200
	if cfg.Scale == ScaleBench {
		trials = 50
	}
	g := rng.New(cfg.Seed + 43)
	var maxDiff float64
	closedStart := timeNow()
	type job struct {
		sel, best []float64
		a, b      float64
	}
	jobs := make([]job, trials)
	for i := range jobs {
		best := []float64{0.2 + g.Float64(), 0.2 + g.Float64()}
		sel := []float64{best[0] * g.Float64(), best[1] * g.Float64()}
		a := g.Float64() * 2
		b := a + g.Float64()*2
		if i%4 == 0 {
			b = math.Inf(1)
		}
		jobs[i] = job{sel, best, a, b}
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	closedStart = timeNow()
	closedVals := make([]float64, trials)
	for i, j := range jobs {
		closedVals[i] = geom.RegretIntegral(j.sel, j.best, j.a, j.b)
	}
	closedTime := timeSince(closedStart)
	simpsonStart := timeNow()
	for i, j := range jobs {
		v := geom.RegretIntegralSimpson(j.sel, j.best, j.a, j.b)
		if d := math.Abs(v - closedVals[i]); d > maxDiff {
			maxDiff = d
		}
	}
	simpsonTime := timeSince(simpsonStart)
	t := &Table{
		ID:     "ablation3",
		Title:  fmt.Sprintf("closed-form vs adaptive-Simpson regret integrals (%d random segments)", trials),
		Header: []string{"method", "total s", "max |diff|"},
		Rows: [][]string{
			{"closed-form", secs(closedTime), "0"},
			{"adaptive-simpson", secs(simpsonTime), fmt.Sprintf("%.2e", maxDiff)},
		},
	}
	return []*Table{t}, nil
}

func runAblation4(ctx context.Context, cfg Config) ([]*Table, error) {
	n, N := 5000, 5000
	if cfg.Scale == ScaleBench {
		n, N = 800, 1000
	}
	ds, err := dataset.SimulatedHousehold(n, cfg.Seed+44)
	if err != nil {
		return nil, err
	}
	dist, err := utility.NewUniformSimplexLinear(ds.Dim())
	if err != nil {
		return nil, err
	}
	const k = 10
	funcs, err := sampling.Sample(dist, N, rng.New(cfg.Seed+45))
	if err != nil {
		return nil, err
	}

	// Without skyline: shrink starts from all n points.
	fullStart := timeNow()
	inFull, err := core.NewInstance(ds.Points, funcs, core.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	fullPrep := timeSince(fullStart)
	fullQ := timeNow()
	setFull, _, err := core.GreedyShrink(ctx, inFull, k, core.StrategyDelta)
	if err != nil {
		return nil, err
	}
	fullQuery := timeSince(fullQ)
	arrFull, _ := inFull.ARR(setFull)

	// With skyline preprocessing.
	skyStart := timeNow()
	sky, err := skyline.Compute(ds.Points)
	if err != nil {
		return nil, err
	}
	pts := make([][]float64, len(sky))
	for i, s := range sky {
		pts[i] = ds.Points[s]
	}
	inSky, err := core.NewInstance(pts, funcs, core.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	skyPrep := timeSince(skyStart)
	skyQ := timeNow()
	setSky, _, err := core.GreedyShrink(ctx, inSky, min(k, len(sky)), core.StrategyDelta)
	if err != nil {
		return nil, err
	}
	skyQuery := timeSince(skyQ)
	arrSky, _ := inSky.ARR(setSky)

	t := &Table{
		ID:     "ablation4",
		Title:  fmt.Sprintf("skyline preprocessing for GREEDY-SHRINK (n=%d, skyline=%d, N=%d, k=%d)", n, len(sky), N, k),
		Header: []string{"variant", "preprocess s", "query s", "arr"},
		Rows: [][]string{
			{"no skyline", secs(fullPrep), secs(fullQuery), f4(arrFull)},
			{"with skyline", secs(skyPrep), secs(skyQuery), f4(arrSky)},
		},
	}
	if math.Abs(arrFull-arrSky) > 1e-9 {
		return nil, fmt.Errorf("experiments: skyline preprocessing changed arr: %v vs %v", arrFull, arrSky)
	}
	return []*Table{t}, nil
}

func runAblation5(ctx context.Context, cfg Config) ([]*Table, error) {
	p, err := ablationPrep(cfg)
	if err != nil {
		return nil, err
	}
	const k = 10
	lpRun, err := p.runAlgo(ctx, algoMRR, k) // linear prep => LP variant
	if err != nil {
		return nil, err
	}

	sampledStart := timeNow()
	sampledLocal, err := baseline.MRRGreedySampled(ctx, p.in, k)
	if err != nil {
		return nil, err
	}
	sampledTime := timeSince(sampledStart)
	sm, err := p.in.Evaluate(sampledLocal, nil)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "ablation5",
		Title:  fmt.Sprintf("MRR-GREEDY variants (candidates=%d, N=%d, k=%d)", len(p.candidates), p.in.NumFuncs(), k),
		Header: []string{"variant", "time s", "arr", "sampled max rr"},
		Rows: [][]string{
			{"lp-exact", secs(lpRun.Query), f4(lpRun.Metrics.ARR), f4(lpRun.Metrics.MaxRR)},
			{"sampled", secs(sampledTime), f4(sm.ARR), f4(sm.MaxRR)},
		},
	}
	return []*Table{t}, nil
}

// runAblation6 compares the paper's removal-based greedy against the
// insertion-based greedy of the authors' earlier SIGMOD 2016 poster.
// Shrink runs n−k iterations, add runs k, so their costs cross as k grows
// toward n; both land in the same quality neighborhood.
func runAblation6(ctx context.Context, cfg Config) ([]*Table, error) {
	p, err := ablationPrep(cfg)
	if err != nil {
		return nil, err
	}
	ks := []int{5, 10, 20, 40}
	t := &Table{
		ID:     "ablation6",
		Title:  fmt.Sprintf("greedy removal vs insertion (candidates=%d, N=%d)", len(p.candidates), p.in.NumFuncs()),
		Header: []string{"k", "shrink arr", "add arr", "shrink s", "add s"},
	}
	for _, k := range ks {
		if k > len(p.candidates) {
			break
		}
		sStart := timeNow()
		sSet, _, err := core.GreedyShrink(ctx, p.in, k, core.StrategyDelta)
		if err != nil {
			return nil, err
		}
		sTime := timeSince(sStart)
		aStart := timeNow()
		aSet, _, err := core.GreedyAdd(ctx, p.in, k)
		if err != nil {
			return nil, err
		}
		aTime := timeSince(aStart)
		sARR, err := p.in.ARR(sSet)
		if err != nil {
			return nil, err
		}
		aARR, err := p.in.ARR(aSet)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(k), f4(sARR), f4(aARR), secs(sTime), secs(aTime),
		})
	}
	return []*Table{t}, nil
}
