package fam

// This file hosts one benchmark per paper artifact (every table and figure
// of the evaluation section, see DESIGN.md §3) plus the A1–A5 ablations
// and micro-benchmarks of the core kernels. The experiment benchmarks run
// the corresponding internal/experiments runner at bench scale; use
// cmd/famexp for small/paper-scale sweeps with rendered tables.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/regretlab/fam/internal/baseline"
	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/coreset"
	"github.com/regretlab/fam/internal/dataset"
	"github.com/regretlab/fam/internal/dp2d"
	"github.com/regretlab/fam/internal/experiments"
	"github.com/regretlab/fam/internal/geom"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/internal/utility"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Scale: experiments.ScaleBench, Seed: 1}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(ctx, id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper artifacts (Section V and Appendix B).

func BenchmarkTableII(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTableV(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkFig1(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)   { benchExperiment(b, "fig12") }

// Ablations (design choices called out in DESIGN.md).

func BenchmarkAblationShrinkStrategies(b *testing.B) { benchExperiment(b, "ablation1") }
func BenchmarkAblationLazyCounters(b *testing.B)     { benchExperiment(b, "ablation2") }
func BenchmarkAblationIntegration(b *testing.B)      { benchExperiment(b, "ablation3") }
func BenchmarkAblationSkyline(b *testing.B)          { benchExperiment(b, "ablation4") }
func BenchmarkAblationMRR(b *testing.B)              { benchExperiment(b, "ablation5") }
func BenchmarkAblationAddVsShrink(b *testing.B)      { benchExperiment(b, "ablation6") }

// Micro-benchmarks of the core kernels.

func benchInstance(b *testing.B, n, d, N int) *core.Instance {
	b.Helper()
	g := rng.New(7)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		g.UniformVec(p)
		pts[i] = p
	}
	dist, err := utility.NewUniformSimplexLinear(d)
	if err != nil {
		b.Fatal(err)
	}
	funcs, err := sampling.Sample(dist, N, g)
	if err != nil {
		b.Fatal(err)
	}
	in, err := core.NewInstance(pts, funcs, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkGreedyShrinkDelta(b *testing.B) {
	for _, size := range []struct{ n, N int }{{200, 1000}, {1000, 2000}} {
		b.Run(fmt.Sprintf("n=%d/N=%d", size.n, size.N), func(b *testing.B) {
			in := benchInstance(b, size.n, 6, size.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.GreedyShrink(context.Background(), in, 10, core.StrategyDelta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedyShrinkLazy(b *testing.B) {
	in := benchInstance(b, 200, 6, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.GreedyShrink(context.Background(), in, 10, core.StrategyLazy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyShrinkNaive(b *testing.B) {
	in := benchInstance(b, 200, 6, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.GreedyShrink(context.Background(), in, 10, core.StrategyNaive); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyAdd(b *testing.B) {
	in := benchInstance(b, 1000, 6, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.GreedyAdd(context.Background(), in, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel query-engine benchmarks: paper-scale instances (n ≥ 10k points,
// N = 691 sampled users — the Theorem 4 sample size at ε = σ = 0.1) swept
// across worker counts. The instance is built once; only the query phase
// (the solver) is timed, so the workers=1 row is the serial baseline the
// speedup is measured against. Selections are bit-identical across rows.

// parallelBenchInstance builds the shared n=10k instance once per process.
func parallelBenchInstance(b *testing.B) *core.Instance {
	b.Helper()
	parallelBenchOnce.Do(func() {
		parallelBenchIn = benchInstance(b, 10_000, 6, 691)
	})
	if parallelBenchIn == nil {
		b.Fatal("parallel bench instance failed to build")
	}
	return parallelBenchIn
}

var (
	parallelBenchOnce sync.Once
	parallelBenchIn   *core.Instance
)

func benchWorkerSweep(b *testing.B, run func(b *testing.B, in *core.Instance)) {
	b.Helper()
	in := parallelBenchInstance(b)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			in.SetParallelism(workers)
			defer in.SetParallelism(0)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, in)
		})
	}
}

func BenchmarkGreedyShrinkDeltaParallel(b *testing.B) {
	benchWorkerSweep(b, func(b *testing.B, in *core.Instance) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.GreedyShrink(context.Background(), in, 9500, core.StrategyDelta); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGreedyShrinkLazyParallel(b *testing.B) {
	benchWorkerSweep(b, func(b *testing.B, in *core.Instance) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.GreedyShrink(context.Background(), in, 9500, core.StrategyLazy); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGreedyAddParallelWorkers(b *testing.B) {
	benchWorkerSweep(b, func(b *testing.B, in *core.Instance) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.GreedyAdd(context.Background(), in, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The naive strategy is quadratic per iteration, so its sweep runs on a
// smaller instance (still the full worker fan-out per candidate).
func BenchmarkGreedyShrinkNaiveParallel(b *testing.B) {
	in := benchInstance(b, 400, 6, 691)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			in.SetParallelism(workers)
			defer in.SetParallelism(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.GreedyShrink(context.Background(), in, 395, core.StrategyNaive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The exact DP and the SKY-DOM baseline complete the parallel story: both
// sweeps run on n=10k datasets. The DP instance pins its skyline size with
// a quarter-circle front (the DP is O(k·m³) in the skyline size m, so an
// uncontrolled anticorrelated skyline would blow the budget) over 9840
// dominated fill points; SKY-DOM runs on an independent 6-d cloud whose
// ~500-point skyline drives both sharded loops. Selections are
// bit-identical across worker counts — only the wall clock moves.

// dp2dBenchPoints builds n 2-d points whose skyline is exactly the m
// front points on a quarter circle.
func dp2dBenchPoints(n, m int) [][]float64 {
	g := rng.New(17)
	pts := make([][]float64, 0, n)
	lo, hi := 0.05, 1.5207 // keep tangents finite and positive
	for i := 0; i < m; i++ {
		th := lo + (hi-lo)*float64(i)/float64(m-1)
		pts = append(pts, []float64{math.Cos(th), math.Sin(th)})
	}
	for len(pts) < n {
		th := lo + (hi-lo)*g.Float64()
		s := 0.5 + 0.2*g.Float64() // well inside the front: always dominated
		pts = append(pts, []float64{s * math.Cos(th), s * math.Sin(th)})
	}
	return pts
}

func BenchmarkDP2DParallel(b *testing.B) {
	pts := dp2dBenchPoints(10_000, 160)
	const k = 6
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dp2d.SolveOpts(context.Background(), pts, k, dp2d.Options{Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSkyDomParallel(b *testing.B) {
	ds, err := dataset.Synthetic(10_000, 6, dataset.Independent, 3)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.SkyDom(context.Background(), ds.Points, k, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The batched lazy refresh changes work counts, not selections; sweep the
// batch size at a fixed worker count to expose the trade-off.
func BenchmarkGreedyShrinkLazyBatch(b *testing.B) {
	in := parallelBenchInstance(b)
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			in.SetParallelism(8)
			in.SetLazyBatch(batch)
			defer func() {
				in.SetParallelism(0)
				in.SetLazyBatch(0)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.GreedyShrink(context.Background(), in, 9500, core.StrategyLazy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkARREvaluation(b *testing.B) {
	in := benchInstance(b, 1000, 6, 2000)
	set := []int{1, 50, 200, 500, 900}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.ARR(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkylineCompute(b *testing.B) {
	for _, corr := range []dataset.Correlation{dataset.Independent, dataset.Anticorrelated} {
		b.Run(corr.String(), func(b *testing.B) {
			ds, err := dataset.Synthetic(5000, 6, corr, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := skyline.Compute(ds.Points); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRegretIntegralClosedForm(b *testing.B) {
	sel := []float64{0.3, 0.4}
	best := []float64{0.8, 0.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.RegretIntegral(sel, best, 0.1, 3.5)
	}
}

func BenchmarkRegretIntegralSimpson(b *testing.B) {
	sel := []float64{0.3, 0.4}
	best := []float64{0.8, 0.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geom.RegretIntegralSimpson(sel, best, 0.1, 3.5)
	}
}

// BenchmarkCoresetKernel sweeps the ε-kernel coreset prepass and the
// cache-blocked evaluation kernel across the paper's n regimes. Each op
// is a full one-shot Select (skyline + sampling + coreset + solver), so
// the rows show where the prepass pays: at 10⁶ the unpruned
// GREEDY-SHRINK family is infeasible (the skyline alone leaves thousands
// of candidates on anticorrelated data and the utility matrix exceeds
// the cache budget), so only coreset-on rows run there. famexp
// -kernel-bench runs the same sweep with solver/preprocess timing split
// and emits the gated BENCH_kernel.json.
func BenchmarkCoresetKernel(b *testing.B) {
	for _, sc := range []struct {
		n    int
		corr Correlation
	}{{10_000, Anticorrelated}, {100_000, Anticorrelated}, {1_000_000, Independent}} {
		ds, err := Synthetic(sc.n, 4, sc.corr, 1)
		if err != nil {
			b.Fatal(err)
		}
		dist, err := UniformLinear(ds.Dim())
		if err != nil {
			b.Fatal(err)
		}
		for _, coreset := range []bool{false, true} {
			if !coreset && sc.n >= 1_000_000 {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/coreset=%t", sc.n, coreset), func(b *testing.B) {
				q := Query{Data: ds, Dist: dist, K: 10, Algorithm: GreedyShrinkLazy,
					SampleSize: 200, Seed: 1, Coreset: coreset}
				res, _, err := Select(context.Background(), q, Exec{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.SkylineSize), "skyline")
				if coreset {
					b.ReportMetric(float64(res.CoresetSize), "candidates")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := Select(context.Background(), q, Exec{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPreprocessFreshSeed is the preprocessing a fresh-seed Engine
// query pays once its skyline is cached: the ε-kernel coreset filter
// over the skyline of 10⁵ anticorrelated points, then materialization of
// the N=691 × survivors utility matrix. Every iteration samples a new
// seed (untimed), so no fill is reused.
func BenchmarkPreprocessFreshSeed(b *testing.B) {
	ds, err := Synthetic(100_000, 4, Anticorrelated, 1)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		b.Fatal(err)
	}
	sky, err := skyline.Compute(ds.Points)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		funcs, err := sampling.Sample(dist, 691, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cand, err := coreset.Filter(ctx, ds.Points, sky, funcs, coreset.Options{Eps: DefaultCoresetEps})
		if err != nil {
			b.Fatal(err)
		}
		pts := make([][]float64, len(cand))
		for j, c := range cand {
			pts[j] = ds.Points[c]
		}
		if _, err := core.NewInstance(pts, funcs, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sky)), "skyline")
}

func BenchmarkSelectEndToEnd(b *testing.B) {
	ds, err := Hotels(500, 5)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Select(context.Background(), Query{Data: ds, Dist: dist, K: 8, Seed: 1, SampleSize: 2000}, Exec{}); err != nil {
			b.Fatal(err)
		}
	}
}
