package dp2d

import (
	"context"
	"math"
	"testing"

	"github.com/regretlab/fam/internal/geom"
	"github.com/regretlab/fam/internal/rng"
)

func randPoints(g *rng.RNG, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{g.Float64(), g.Float64()}
	}
	return pts
}

func TestSolveValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := SolveOpts(ctx, [][]float64{{1, 0}}, 0, Options{}); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := SolveOpts(ctx, [][]float64{{1, 2, 3}}, 1, Options{}); err == nil {
		t.Fatal("3-d must error")
	}
	if _, err := SolveOpts(ctx, nil, 1, Options{}); err == nil {
		t.Fatal("empty must error")
	}
}

func TestSolveWholeSkylineFits(t *testing.T) {
	pts := [][]float64{{1, 0}, {0, 1}, {0.9, 0}} // third point dominated by (1,0)
	res, err := SolveOpts(context.Background(), pts, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ARR != 0 {
		t.Fatalf("arr = %v, want 0", res.ARR)
	}
	if res.SkylineSize != 2 || len(res.Set) != 2 {
		t.Fatalf("skyline %d, set %v", res.SkylineSize, res.Set)
	}
}

func TestSolveHandComputedK1(t *testing.T) {
	// D = {(1,0), (0,1)}: by symmetry each single point has arr 1/4;
	// the DP must achieve exactly 0.25 with one of them.
	pts := [][]float64{{1, 0}, {0, 1}}
	res, err := SolveOpts(context.Background(), pts, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ARR-0.25) > 1e-12 {
		t.Fatalf("arr = %v, want 0.25", res.ARR)
	}
	if len(res.Set) != 1 {
		t.Fatalf("set = %v", res.Set)
	}
}

func TestSolveDominatedPointsIgnored(t *testing.T) {
	// Adding dominated points must not change the solution value.
	base := [][]float64{{1, 0.1}, {0.6, 0.7}, {0.1, 1}}
	with := append([][]float64{}, base...)
	with = append(with, []float64{0.05, 0.05}, []float64{0.5, 0.5})
	r1, err := SolveOpts(context.Background(), base, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveOpts(context.Background(), with, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.ARR-r2.ARR) > 1e-12 {
		t.Fatalf("arr changed with dominated points: %v vs %v", r1.ARR, r2.ARR)
	}
}

// The core correctness test: DP optimum equals brute-force enumeration
// with exact integration, on random instances.
func TestSolveMatchesBruteForce(t *testing.T) {
	g := rng.New(71)
	for trial := 0; trial < 25; trial++ {
		n := g.IntN(10) + 3
		pts := randPoints(g, n)
		maxK := 4
		if n < maxK {
			maxK = n
		}
		k := g.IntN(maxK) + 1
		res, err := SolveOpts(context.Background(), pts, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Exhaustive search over all k-subsets with exact arr.
		best := math.Inf(1)
		var bestSet []int
		var rec func(start int, chosen []int)
		rec = func(start int, chosen []int) {
			if len(chosen) == k {
				arr, err := geom.ExactARR(pts, chosen)
				if err != nil {
					t.Fatal(err)
				}
				if arr < best {
					best = arr
					bestSet = append([]int(nil), chosen...)
				}
				return
			}
			for p := start; p < n; p++ {
				rec(p+1, append(chosen, p))
			}
		}
		rec(0, nil)
		if math.Abs(res.ARR-best) > 1e-9 {
			t.Fatalf("trial %d (n=%d k=%d): DP %v vs brute %v (DP set %v, brute set %v)",
				trial, n, k, res.ARR, best, res.Set, bestSet)
		}
		// The reported set must achieve the reported value.
		check, err := geom.ExactARR(pts, res.Set)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(check-res.ARR) > 1e-9 {
			t.Fatalf("trial %d: set %v has arr %v, reported %v", trial, res.Set, check, res.ARR)
		}
	}
}

func TestSolveReturnsExactlyK(t *testing.T) {
	g := rng.New(77)
	pts := randPoints(g, 40)
	res, err := SolveOpts(context.Background(), pts, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkylineSize > 3 && len(res.Set) != 3 {
		t.Fatalf("set size %d, want 3", len(res.Set))
	}
	for i := 1; i < len(res.Set); i++ {
		if res.Set[i] <= res.Set[i-1] {
			t.Fatalf("set not sorted: %v", res.Set)
		}
	}
}

func TestSolveMonotoneInK(t *testing.T) {
	g := rng.New(79)
	pts := randPoints(g, 60)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := SolveOpts(context.Background(), pts, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ARR > prev+1e-12 {
			t.Fatalf("optimal arr increased with k: %v -> %v", prev, res.ARR)
		}
		prev = res.ARR
	}
}

func TestSolveContextCancel(t *testing.T) {
	g := rng.New(83)
	// Anticorrelated-ish points to get a large skyline so the DP actually
	// checks the context.
	pts := make([][]float64, 300)
	for i := range pts {
		x := g.Float64()
		pts[i] = []float64{x, 1 - x + 0.01*g.Float64()}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveOpts(ctx, pts, 5, Options{}); err == nil {
		t.Fatal("canceled context must error")
	}
}

func TestSolveDeterminism(t *testing.T) {
	g := rng.New(89)
	pts := randPoints(g, 30)
	r1, err1 := SolveOpts(context.Background(), pts, 4, Options{})
	r2, err2 := SolveOpts(context.Background(), pts, 4, Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.ARR != r2.ARR || len(r1.Set) != len(r2.Set) {
		t.Fatal("non-deterministic result")
	}
	for i := range r1.Set {
		if r1.Set[i] != r2.Set[i] {
			t.Fatal("non-deterministic set")
		}
	}
}
