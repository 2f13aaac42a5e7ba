package skyline

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/regretlab/fam/internal/dataset"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/point"
	"github.com/regretlab/fam/internal/rng"
)

// frontEndRuns are the settings the sharded front end must agree across:
// one to seven shards on per-call goroutines, and a 4-helper pool.
func frontEndRuns(pool *par.Pool) []ComputeOptions {
	runs := []ComputeOptions{{Pool: pool, Workers: 4}}
	for _, w := range []int{1, 2, 3, 4, 7} {
		runs = append(runs, ComputeOptions{Workers: w})
	}
	return runs
}

// TestComputeOptsShardedFrontEnd: the sharded validation, bounds, grid
// marks, survivor keys and radix order must leave the skyline and the
// scan's work counts identical at every shard count, reject bad rows with
// exactly point.Validate's error, and order the keys exactly as the
// comparator does.
func TestComputeOptsShardedFrontEnd(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	ctx := context.Background()

	t.Run("same-skyline-and-counts", func(t *testing.T) {
		for _, corr := range []dataset.Correlation{dataset.Anticorrelated, dataset.Independent, dataset.Correlated} {
			for _, n := range []int{2*par.Grain - 1, 2*par.Grain + 1, 1000} {
				ds, err := dataset.Synthetic(n, 3, corr, uint64(n))
				if err != nil {
					t.Fatal(err)
				}
				want, err := ComputeBNL(ds.Points)
				if err != nil {
					t.Fatal(err)
				}
				var wantCounts scanCounts
				for i, opts := range frontEndRuns(pool) {
					var sc scanCounts
					got, err := computeOpts(ctx, ds.Points, opts, &sc)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						wantCounts = sc
					}
					if !equalInts(got, want) || sc != wantCounts {
						t.Fatalf("%v n=%d workers=%d pool=%v: skyline %d points, counts %+v; want %d points, %+v",
							corr, n, opts.Workers, opts.Pool != nil, len(got), sc, len(want), wantCounts)
					}
				}
			}
		}
	})

	t.Run("bad-rows", func(t *testing.T) {
		const n = 1000
		for _, c := range []struct {
			name string
			bad  map[int][]float64 // row index → replacement row
		}{
			{"nan-first-shard", map[int][]float64{3: {0.5, math.NaN(), 0.5}}},
			{"inf-last-shard", map[int][]float64{n - 2: {0.5, 0.5, math.Inf(1)}}},
			{"ragged-middle-shard", map[int][]float64{n / 2: {0.5, 0.5}}},
			{"long-row", map[int][]float64{n / 3: {0.5, 0.5, 0.5, 0.5}}},
			{"two-shards", map[int][]float64{n / 10: {0.5}, 9 * n / 10: {math.Inf(-1), 0, 0}}},
		} {
			ds, err := dataset.Synthetic(n, 3, dataset.Independent, 5)
			if err != nil {
				t.Fatal(err)
			}
			pts := ds.Points
			for i, p := range c.bad {
				pts[i] = p
			}
			_, want := point.Validate(pts)
			if want == nil {
				t.Fatalf("%s: point.Validate accepted the rows", c.name)
			}
			canceled, cancel := context.WithCancel(ctx)
			cancel()
			for _, opts := range frontEndRuns(pool) {
				// A bad row takes precedence over a canceled context.
				for _, cctx := range []context.Context{ctx, canceled} {
					if _, err := ComputeOpts(cctx, pts, opts); err == nil || err.Error() != want.Error() {
						t.Fatalf("%s workers=%d pool=%v: err %v, want %v",
							c.name, opts.Workers, opts.Pool != nil, err, want)
					}
				}
			}
		}
	})

	t.Run("radix-order", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		big := 1.7e308
		// The key strictly ascends as the sum descends, and ±0 share one.
		desc := []float64{math.Inf(1), big, 1, 1e-300, 5e-324, 0, -5e-324, -1, -big, math.Inf(-1)}
		for i := 1; i < len(desc); i++ {
			if descKey(desc[i-1]) >= descKey(desc[i]) {
				t.Fatalf("descKey(%v) = %#x is not below descKey(%v) = %#x", desc[i-1], descKey(desc[i-1]), desc[i], descKey(desc[i]))
			}
		}
		if descKey(negZero) != descKey(0) {
			t.Fatalf("descKey(−0) = %#x, descKey(+0) = %#x", descKey(negZero), descKey(0))
		}
		pts := [][]float64{
			{1, 2}, {2, 1}, {1.5, 1.5}, {1, 2}, // equal sums, a duplicate
			{0, 0}, {negZero, 0}, {1, -1}, {-1, 1}, {negZero, negZero}, // ±0 sums
			{big, big}, {big, big}, {big, 0.5 * big}, {-big, -big}, {-0.5 * big, -big}, // ±Inf sums
			{3, 0}, {-2, -5}, {1e-300, 0}, {-1e-300, 0}, {0.25, 0.5},
		}
		keys := make([]sortKey, len(pts))
		for i, p := range pts {
			keys[i] = sortKey{p[0] + p[1], i}
		}
		// Hand-set sums as well: −0 never comes out of a sum that starts at
		// +0, but the key must still treat it as equal to +0.
		keys[5].sum, keys[8].sum = negZero, negZero
		g := rng.New(7)
		for trial := range 50 {
			in := slices.Clone(keys)
			for i := len(in) - 1; i > 0 && trial > 0; i-- {
				j := g.IntN(i + 1)
				in[i], in[j] = in[j], in[i]
			}
			want := slices.Clone(in)
			slices.SortFunc(want, scanOrder(pts))
			sortKeys(pts, in)
			if !slices.Equal(in, want) {
				t.Fatalf("trial %d: radix order %v, comparator %v", trial, in, want)
			}
		}
	})
}
