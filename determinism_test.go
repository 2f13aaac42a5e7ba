package fam

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// allAlgorithms is every member of the Algorithm enum; the determinism
// and cancellation suites below must cover each one.
var allAlgorithms = []Algorithm{
	GreedyShrink, GreedyShrinkLazy, GreedyShrinkNaive,
	DP2D, BruteForce, MRRGreedy, SkyDom, KHit, GreedyAdd,
}

// Every algorithm must return bit-identical selections and Metrics when
// the worker bound changes: the parallel query engine shards independent
// evaluations and merges with a lowest-index tie-break, so Parallelism is
// a pure throughput knob. The 2-d dataset keeps DP2D and BruteForce in
// range; UniformLinear(2) matches DP2D's model.
func TestSelectParallelMatchesSerialAllAlgorithms(t *testing.T) {
	ctx := context.Background()
	ds, err := Synthetic(60, 2, Independent, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range allAlgorithms {
		q := Query{Data: ds, Dist: dist, K: 3, Seed: 9, SampleSize: 300, Algorithm: algo}
		ref, _, err := Select(ctx, q, Exec{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", algo, err)
		}
		for _, workers := range []int{2, 4, 0} {
			got, _, err := Select(ctx, q, Exec{Parallelism: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo, workers, err)
			}
			if !reflect.DeepEqual(got.Indices, ref.Indices) {
				t.Fatalf("%s workers=%d: indices %v != %v", algo, workers, got.Indices, ref.Indices)
			}
			if !reflect.DeepEqual(got.Metrics, ref.Metrics) {
				t.Fatalf("%s workers=%d: metrics diverged:\n%+v\n%+v", algo, workers, got.Metrics, ref.Metrics)
			}
		}
	}
}

// The sampled MRR-Greedy path (non-linear Θ) parallelizes over users
// rather than LP candidates; it must be deterministic too.
func TestSelectParallelSampledMRR(t *testing.T) {
	ctx := context.Background()
	ds, err := Synthetic(80, 3, Anticorrelated, 5)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := CESUniform(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Data: ds, Dist: dist, K: 4, Seed: 2, SampleSize: 400, Algorithm: MRRGreedy}
	ref, _, err := Select(ctx, q, Exec{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 0} {
		got, _, err := Select(ctx, q, Exec{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Indices, ref.Indices) || !reflect.DeepEqual(got.Metrics, ref.Metrics) {
			t.Fatalf("workers=%d: result diverged", workers)
		}
	}
}

// The three GREEDY-SHRINK strategies are interchangeable implementations
// of Algorithm 1 and must agree end-to-end across seeds and datasets.
func TestSelectStrategiesAgree(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 4} {
		ds, err := Synthetic(70, 4, Independent, seed)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := UniformLinear(4)
		if err != nil {
			t.Fatal(err)
		}
		base := Query{Data: ds, Dist: dist, K: 6, Seed: seed, SampleSize: 350}
		base.Algorithm = GreedyShrink
		ref, _, err := Select(ctx, base, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{GreedyShrinkLazy, GreedyShrinkNaive} {
			q := base
			q.Algorithm = algo
			got, _, err := Select(ctx, q, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Indices, ref.Indices) {
				t.Fatalf("seed=%d %s: indices %v != %v", seed, algo, got.Indices, ref.Indices)
			}
			if got.Metrics.ARR != ref.Metrics.ARR {
				t.Fatalf("seed=%d %s: ARR %v != %v", seed, algo, got.Metrics.ARR, ref.Metrics.ARR)
			}
		}
	}
}

// Every solver reachable from Select must return promptly with ctx.Err()
// on a pre-canceled context — including from inside the worker pools,
// which the Parallelism: 4 setting forces onto the parallel paths.
func TestSelectPreCanceledAllAlgorithms(t *testing.T) {
	ds, err := Synthetic(50, 2, Independent, 7)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range allAlgorithms {
		for _, workers := range []int{1, 4} {
			_, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 3, Seed: 1, SampleSize: 200, Algorithm: algo}, Exec{Parallelism: workers})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: err = %v, want context.Canceled", algo, workers, err)
			}
		}
	}
}
