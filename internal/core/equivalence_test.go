package core

import (
	"context"
	"testing"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/utility"
)

// workerInstance builds a seeded instance with the requested worker bound.
func workerInstance(t testing.TB, seed uint64, n, d, N, workers int) *Instance {
	t.Helper()
	g := rng.New(seed)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		g.UniformVec(p)
		pts[i] = p
	}
	dist, err := utility.NewUniformSimplexLinear(d)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := sampling.Sample(dist, N, g)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(pts, funcs, Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func sameSet(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: |set| = %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: set[%d] = %d, want %d (got %v want %v)", label, i, got[i], want[i], got, want)
		}
	}
}

// All three GREEDY-SHRINK strategies must return identical sets on seeded
// randomized instances — they implement the same Algorithm 1, differing
// only in how evaluation values are obtained.
func TestStrategyEquivalenceRandomized(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 7, 23, 101} {
		in := workerInstance(t, seed, 60, 4, 300, 1)
		ref, _, err := GreedyShrink(ctx, in, 8, StrategyDelta)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{StrategyLazy, StrategyNaive} {
			set, _, err := GreedyShrink(ctx, in, 8, s)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, s.String(), set, ref)
		}
	}
}

// Every parallel solver must be bit-identical to its serial run: same set,
// same ARR bits, same work counters. Only the worker/batch counters
// may differ with the worker bound.
func TestParallelMatchesSerialAllSolvers(t *testing.T) {
	ctx := context.Background()
	const n, d, N, k = 80, 4, 500, 10
	serial := workerInstance(t, 42, n, d, N, 1)

	type run struct {
		set   []int
		arr   float64
		stats ShrinkStats
	}
	solve := func(in *Instance, name string) run {
		t.Helper()
		switch name {
		case "delta", "lazy", "naive":
			s := map[string]Strategy{"delta": StrategyDelta, "lazy": StrategyLazy, "naive": StrategyNaive}[name]
			set, stats, err := GreedyShrink(ctx, in, k, s)
			if err != nil {
				t.Fatal(err)
			}
			return run{set, mustARR(t, in, set), stats}
		case "add":
			set, stats, err := GreedyAdd(ctx, in, k)
			if err != nil {
				t.Fatal(err)
			}
			return run{set, mustARR(t, in, set), stats}
		case "add-plain":
			set, err := GreedyAddPlain(ctx, in, k)
			if err != nil {
				t.Fatal(err)
			}
			return run{set, mustARR(t, in, set), ShrinkStats{}}
		case "brute":
			set, arr, err := BruteForce(ctx, in, 3)
			if err != nil {
				t.Fatal(err)
			}
			return run{set, arr, ShrinkStats{}}
		}
		t.Fatalf("unknown solver %q", name)
		return run{}
	}

	solvers := []string{"delta", "lazy", "naive", "add", "add-plain", "brute"}
	refs := make(map[string]run, len(solvers))
	for _, name := range solvers {
		refs[name] = solve(serial, name)
	}
	if w := refs["delta"].stats.Workers; w != 1 {
		t.Fatalf("serial delta ran with Workers=%d", w)
	}

	for _, workers := range []int{2, 3, 8, 0} {
		par := workerInstance(t, 42, n, d, N, workers)
		for _, name := range solvers {
			got, ref := solve(par, name), refs[name]
			label := name
			sameSet(t, label, got.set, ref.set)
			if got.arr != ref.arr {
				t.Fatalf("workers=%d %s: ARR %v != %v", workers, label, got.arr, ref.arr)
			}
			if got.stats.Evaluations != ref.stats.Evaluations ||
				got.stats.EvalSkipped != ref.stats.EvalSkipped ||
				got.stats.UserRescans != ref.stats.UserRescans ||
				got.stats.Iterations != ref.stats.Iterations ||
				got.stats.CandidateTotal != ref.stats.CandidateTotal {
				t.Fatalf("workers=%d %s: work counters diverged: %+v vs %+v", workers, label, got.stats, ref.stats)
			}
		}
	}
}

// Weighted (Appendix A) instances exercise a different accumulation path;
// parallel must stay bit-identical there too.
func TestParallelMatchesSerialWeighted(t *testing.T) {
	ctx := context.Background()
	g := rng.New(5)
	const n, d, N = 50, 3, 200
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		g.UniformVec(p)
		pts[i] = p
	}
	dist, err := utility.NewUniformSimplexLinear(d)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := sampling.Sample(dist, N, g)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, N)
	for i := range weights {
		weights[i] = g.Float64() + 0.01
	}
	build := func(workers int) *Instance {
		in, err := NewInstance(pts, funcs, Options{Weights: weights, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	serial := build(1)
	ref, _, err := GreedyShrink(ctx, serial, 6, StrategyDelta)
	if err != nil {
		t.Fatal(err)
	}
	refARR := mustARR(t, serial, ref)
	for _, workers := range []int{2, 4} {
		in := build(workers)
		set, _, err := GreedyShrink(ctx, in, 6, StrategyDelta)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, "weighted-delta", set, ref)
		if arr := mustARR(t, in, set); arr != refARR {
			t.Fatalf("workers=%d: ARR %v != %v", workers, arr, refARR)
		}
	}
}

// Every solver must return promptly with ctx.Err() on a pre-canceled
// context, including when evaluations would run inside the worker pool.
func TestSolversPreCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		in := workerInstance(t, 3, 40, 3, 200, workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, s := range []Strategy{StrategyDelta, StrategyLazy, StrategyNaive} {
			if _, _, err := GreedyShrink(ctx, in, 5, s); err != context.Canceled {
				t.Fatalf("workers=%d %s: err = %v, want context.Canceled", workers, s, err)
			}
		}
		if _, _, err := GreedyAdd(ctx, in, 5); err != context.Canceled {
			t.Fatalf("workers=%d GreedyAdd: err = %v", workers, err)
		}
		if _, err := GreedyAddPlain(ctx, in, 5); err != context.Canceled {
			t.Fatalf("workers=%d GreedyAddPlain: err = %v", workers, err)
		}
		if _, _, err := BruteForce(ctx, in, 3); err != context.Canceled {
			t.Fatalf("workers=%d BruteForce: err = %v", workers, err)
		}
	}
}

// The worker/contention counters must reflect the configured bound and
// count every batch exactly once.
func TestShrinkStatsWorkerCounters(t *testing.T) {
	ctx := context.Background()
	in := workerInstance(t, 11, 120, 3, 400, 4)
	_, stats, err := GreedyShrink(ctx, in, 10, StrategyDelta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", stats.Workers)
	}
	if stats.ParallelBatches+stats.SerialBatches == 0 {
		t.Fatal("no evaluation batches recorded")
	}
	// n=120 with 4 workers clears the dispatch grain, so at least the
	// initialization batch must have fanned out.
	if stats.ParallelBatches == 0 {
		t.Fatal("initialization batch never fanned out")
	}

	serialIn := workerInstance(t, 11, 120, 3, 400, 1)
	_, sstats, err := GreedyShrink(ctx, serialIn, 10, StrategyDelta)
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Workers != 1 || sstats.ParallelBatches != 0 {
		t.Fatalf("serial run recorded Workers=%d ParallelBatches=%d", sstats.Workers, sstats.ParallelBatches)
	}
}
