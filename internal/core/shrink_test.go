package core

import (
	"context"
	"math"
	"testing"

	"github.com/regretlab/fam/internal/rng"
)

func allStrategies() []Strategy {
	return []Strategy{StrategyDelta, StrategyLazy, StrategyNaive}
}

func TestGreedyShrinkValidation(t *testing.T) {
	in := randomInstance(t, 6, 2, 20, 1)
	ctx := context.Background()
	if _, _, err := GreedyShrink(ctx, nil, 2, StrategyDelta); err == nil {
		t.Fatal("nil instance must error")
	}
	if _, _, err := GreedyShrink(ctx, in, 0, StrategyDelta); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, _, err := GreedyShrink(ctx, in, 7, StrategyDelta); err == nil {
		t.Fatal("k>n must error")
	}
	if _, _, err := GreedyShrink(ctx, in, 2, Strategy(42)); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

// mustARR is in.ARR(set), failing the test on error.
func mustARR(t *testing.T, in *Instance, set []int) float64 {
	t.Helper()
	arr, err := in.ARR(set)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestGreedyShrinkKEqualsN(t *testing.T) {
	in := randomInstance(t, 5, 2, 30, 2)
	for _, s := range allStrategies() {
		set, st, err := GreedyShrink(context.Background(), in, 5, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(set) != 5 || st.Iterations != 0 {
			t.Fatalf("%v: set=%v iters=%d", s, set, st.Iterations)
		}
		if arr := mustARR(t, in, set); arr != 0 {
			t.Fatalf("%v: arr(D) = %v, want 0", s, arr)
		}
	}
}

func TestGreedyShrinkBasicShape(t *testing.T) {
	in := randomInstance(t, 25, 3, 200, 3)
	for _, s := range allStrategies() {
		set, st, err := GreedyShrink(context.Background(), in, 4, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(set) != 4 {
			t.Fatalf("%v: |set| = %d", s, len(set))
		}
		for i := 1; i < len(set); i++ {
			if set[i] <= set[i-1] {
				t.Fatalf("%v: set not sorted ascending: %v", s, set)
			}
		}
		if st.Iterations != 21 {
			t.Fatalf("%v: iterations = %d, want 21", s, st.Iterations)
		}
	}
}

// All three strategies implement the same algorithm and must return the
// same solution set on random instances.
func TestStrategiesAgree(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := rng.New(seed + 500)
		n := g.IntN(15) + 5
		N := g.IntN(60) + 10
		in := sampledTableInstance(g, n, N)
		k := g.IntN(n-1) + 1
		var ref []int
		for i, s := range allStrategies() {
			set, _, err := GreedyShrink(context.Background(), in, k, s)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			if i == 0 {
				ref = set
				continue
			}
			if len(set) != len(ref) {
				t.Fatalf("seed %d: %v set %v vs %v", seed, s, set, ref)
			}
			for j := range set {
				if set[j] != ref[j] {
					t.Fatalf("seed %d: %v set %v vs delta set %v", seed, s, set, ref)
				}
			}
		}
	}
}

// GREEDY-SHRINK's arr must decrease (weakly) as k grows, and equal the
// brute-force optimum closely on small instances (the paper observes an
// empirical approximation ratio of exactly 1).
func TestGreedyShrinkVsBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := rng.New(seed + 900)
		in := sampledTableInstance(g, 10, 40)
		for k := 1; k <= 4; k++ {
			set, _, err := GreedyShrink(context.Background(), in, k, StrategyDelta)
			if err != nil {
				t.Fatal(err)
			}
			_, optARR, err := BruteForce(context.Background(), in, k)
			if err != nil {
				t.Fatal(err)
			}
			arr := mustARR(t, in, set)
			if arr < optARR-1e-12 {
				t.Fatalf("greedy %v beat the optimum %v?!", arr, optARR)
			}
			// Theorem 3 guarantee with measured steepness.
			s, err := Steepness(in)
			if err != nil {
				t.Fatal(err)
			}
			bound := ApproxRatioBound(s)
			if !math.IsInf(bound, 1) && optARR > 1e-12 && arr > bound*optARR+1e-9 {
				t.Fatalf("seed %d k %d: greedy %v exceeds bound %v × opt %v (set %v)",
					seed, k, arr, bound, optARR, set)
			}
		}
	}
}

func TestGreedyShrinkMonotoneInK(t *testing.T) {
	in := randomInstance(t, 30, 3, 300, 7)
	prev := math.Inf(1)
	for k := 1; k <= 10; k++ {
		set, _, err := GreedyShrink(context.Background(), in, k, StrategyDelta)
		if err != nil {
			t.Fatal(err)
		}
		// Greedy removal is nested: the k-solution is a superset of the
		// (k-1)-solution, so arr is monotone along the removal path.
		arr := mustARR(t, in, set)
		if arr > prev+1e-12 {
			t.Fatalf("arr increased with k: %v -> %v at k=%d", prev, arr, k)
		}
		prev = arr
	}
}

func TestGreedyShrinkContextCancel(t *testing.T) {
	in := randomInstance(t, 40, 3, 200, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range allStrategies() {
		if _, _, err := GreedyShrink(ctx, in, 2, s); err == nil {
			t.Fatalf("%v: canceled context must error", s)
		}
	}
}

func TestLazyCountersReported(t *testing.T) {
	in := randomInstance(t, 60, 4, 500, 9)
	_, st, err := GreedyShrink(context.Background(), in, 10, StrategyLazy)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluations <= 0 || st.UserRescans <= 0 {
		t.Fatalf("counters empty: %+v", st)
	}
	// Improvement 2 must actually skip work: far fewer evaluations than the
	// naive candidate total.
	if st.Evaluations >= st.CandidateTotal {
		t.Fatalf("lazy evaluated %d of %d candidates — no pruning?", st.Evaluations, st.CandidateTotal)
	}
	if st.EvalSkipped <= 0 {
		t.Fatalf("expected skipped evaluations, got %+v", st)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyDelta.String() != "delta" || StrategyLazy.String() != "lazy" ||
		StrategyNaive.String() != "naive" || Strategy(9).String() == "" {
		t.Fatal("Strategy.String broken")
	}
}

func TestBruteForceValidation(t *testing.T) {
	in := randomInstance(t, 6, 2, 10, 10)
	ctx := context.Background()
	if _, _, err := BruteForce(ctx, nil, 2); err == nil {
		t.Fatal("nil instance must error")
	}
	if _, _, err := BruteForce(ctx, in, 0); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, _, err := BruteForce(ctx, in, 7); err == nil {
		t.Fatal("k>n must error")
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	in := randomInstance(t, 64, 2, 5, 11)
	if _, _, err := BruteForce(context.Background(), in, 20); err == nil {
		t.Fatal("C(64,20) must be rejected")
	}
}

func TestBruteForceCancel(t *testing.T) {
	in := randomInstance(t, 20, 2, 50, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := BruteForce(ctx, in, 3); err == nil {
		t.Fatal("canceled context must error")
	}
}

// Brute force must match exhaustive recomputation through the public ARR
// on tiny instances.
func TestBruteForceExact(t *testing.T) {
	g := rng.New(13)
	in := sampledTableInstance(g, 7, 25)
	for k := 1; k <= 3; k++ {
		set, arr, err := BruteForce(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		check, err := in.ARR(set)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(check-arr) > 1e-12 {
			t.Fatalf("reported arr %v != recomputed %v", arr, check)
		}
		// No subset may beat it.
		var verify func(start int, chosen []int)
		verify = func(start int, chosen []int) {
			if len(chosen) == k {
				a, _ := in.ARR(chosen)
				if a < arr-1e-12 {
					t.Fatalf("subset %v has arr %v < brute force %v", chosen, a, arr)
				}
				return
			}
			for p := start; p < in.NumPoints(); p++ {
				verify(p+1, append(chosen, p))
			}
		}
		verify(0, nil)
	}
}
