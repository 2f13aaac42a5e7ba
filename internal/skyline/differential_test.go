package skyline

import (
	"context"
	"fmt"
	"testing"

	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/rng"
)

// sumTieCases are inputs where a dominator's attribute sum equals the sum
// of the point it dominates: rounding absorbs the difference, or both sums
// overflow to +Inf. A scan ordered by sum alone keeps the dominated point.
var sumTieCases = [][][]float64{
	{{1, 0}, {1, 1e-17}},
	{{1e308, 0.9e308}, {1e308, 1e308}},
	{{0.5, 0.5, 0}, {0.5, 0.5, 1e-18}},
}

// checkMatchesBNL requires ComputeOpts to return ComputeBNL's answer (or
// to fail exactly when it fails) at every worker count, with and without
// an externally owned pool.
func checkMatchesBNL(t *testing.T, pts [][]float64, pool *par.Pool) {
	t.Helper()
	want, wantErr := ComputeBNL(pts)
	for _, workers := range []int{1, 2, 4} {
		for _, p := range []*par.Pool{nil, pool} {
			got, err := ComputeOpts(context.Background(), pts, ComputeOptions{Workers: workers, Pool: p})
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("workers=%d pool=%v: err = %v, BNL err = %v", workers, p != nil, err, wantErr)
			}
			if !equalInts(got, want) {
				t.Fatalf("workers=%d pool=%v: ComputeOpts %d points, BNL %d points",
					workers, p != nil, len(got), len(want))
			}
		}
	}
}

// TestComputeOptsSumTiesMatchBNL pins the dominance-safe tie-break: on
// equal sums the dominator must still precede the dominated point.
func TestComputeOptsSumTiesMatchBNL(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for ci, pts := range sumTieCases {
		t.Run(fmt.Sprint(ci), func(t *testing.T) {
			checkMatchesBNL(t, pts, pool)
			if got, _ := Compute(pts); len(got) != 1 || got[0] != 1 {
				t.Fatalf("Compute = %v, want [1]", got)
			}
		})
	}
}

// TestComputeOptsMatchesBNLDifferential compares the prefiltered, bucketed
// window scan with the reference scan across the shapes that exercise it:
// every d up to past the mask cap (the grid side runs from 1061 at d=1
// down to 2 at d≥7), several parallel blocks, heavy ties and duplicates,
// extreme magnitudes, grid widths that are not finite and positive, and
// points sitting exactly on the pivot or on cell boundaries.
func TestComputeOptsMatchesBNLDifferential(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	const n = 2*computeBlock + 37
	g := rng.New(20190408)
	gens := []struct {
		name string
		val  func(j int) float64
	}{
		{"uniform", func(j int) float64 { return g.Float64() }},
		{"grid", func(j int) float64 { return float64(g.IntN(4)) }},
		{"negative", func(j int) float64 { return -float64(g.IntN(1000)) / 7 }},
		{"huge", func(j int) float64 { return (2*g.Float64() - 1) * 1e300 }},
		// Sums of two or more attributes can overflow to +Inf and tie.
		{"overflow", func(j int) float64 { return float64(7+g.IntN(4)) * 1e307 }},
		{"duplicates", func(j int) float64 { return float64(j) }},
		// The grid prefilter's float edges: a subnormal width whose scale
		// overflows to +Inf, a width hi−lo that overflows to +Inf, a flat
		// attribute, and values on cell boundaries.
		{"subnormal", func(j int) float64 { return float64(g.IntN(2)) * 5e-324 }},
		{"span", func(j int) float64 { return (2*g.Float64() - 1) * 1.7e308 }},
		{"flat-attr", func(j int) float64 {
			if j == 0 {
				return 0.5
			}
			return g.Float64()
		}},
		{"cell-edge", func(j int) float64 { return float64(g.IntN(65)) / 64 }},
	}
	for d := 1; d <= 9; d++ {
		for _, gen := range gens {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, d)
				for j := range pts[i] {
					pts[i][j] = gen.val(j)
				}
			}
			t.Run(fmt.Sprintf("d=%d/%s", d, gen.name), func(t *testing.T) { checkMatchesBNL(t, pts, pool) })
		}
		// Each grid point paired with its mirror: every attribute's mean is
		// exactly 1, so the points with a coordinate 1 sit on the pivot.
		pts := make([][]float64, 0, n)
		for len(pts) < n {
			p, q := make([]float64, d), make([]float64, d)
			for j := range p {
				p[j] = float64(g.IntN(3))
				q[j] = 2 - p[j]
			}
			pts = append(pts, p, q)
		}
		t.Run(fmt.Sprintf("d=%d/pivot", d), func(t *testing.T) { checkMatchesBNL(t, pts, pool) })
	}
}
