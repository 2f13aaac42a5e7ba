package fam

import (
	"context"
	"math"
	"testing"
)

// tableIDataset builds the paper's Table I scenario as a dataset plus a
// discrete Θ.
func tableIDataset(t *testing.T) (*Dataset, Distribution) {
	t.Helper()
	ds := &Dataset{
		Name:   "hotels-tableI",
		Labels: []string{"Holiday Inn", "Shangri la", "Intercontinental", "Hilton"},
		Points: [][]float64{{0}, {1}, {2}, {3}},
	}
	dist, err := TableUsers([][]float64{
		{0.9, 0.7, 0.2, 0.4},
		{0.6, 1, 0.5, 0.2},
		{0.2, 0.6, 0.3, 1},
		{0.1, 0.2, 1, 0.9},
	}, []float64{0.25, 0.25, 0.25, 0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	return ds, dist
}

func TestExactDiscreteEvaluate(t *testing.T) {
	ctx := context.Background()
	ds, dist := tableIDataset(t)
	m, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: []int{2, 3}, ExactDiscrete: true}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	// Appendix A's exact value for S = {Intercontinental, Hilton}.
	if want := 19.0 / 72.0; math.Abs(m.ARR-want) > 1e-12 {
		t.Fatalf("exact ARR = %v, want %v", m.ARR, want)
	}
	if m.DegenerateUsers != 0 {
		t.Fatal("no degenerate users expected")
	}
}

func TestExactDiscreteSelect(t *testing.T) {
	ctx := context.Background()
	ds, dist := tableIDataset(t)
	res, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 2, Algorithm: BruteForce, ExactDiscrete: true}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	// Verify optimality against all pairs under exact evaluation.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			m, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: []int{a, b}, ExactDiscrete: true}, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			if m.ARR < res.Metrics.ARR-1e-12 {
				t.Fatalf("pair (%d,%d) arr %v beats exact brute force %v", a, b, m.ARR, res.Metrics.ARR)
			}
		}
	}
	// Exact mode is deterministic regardless of seed.
	res2, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 2, Algorithm: BruteForce, ExactDiscrete: true, Seed: 999}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ARR != res2.Metrics.ARR || res.Indices[0] != res2.Indices[0] || res.Indices[1] != res2.Indices[1] {
		t.Fatal("exact discrete mode must not depend on the seed")
	}
}

func TestExactDiscreteGreedyMatchesSampling(t *testing.T) {
	ctx := context.Background()
	ds, dist := tableIDataset(t)
	exact, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 2, ExactDiscrete: true}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 2, SampleSize: 20000, Seed: 5}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	// With a large sample the Monte-Carlo estimate converges to the exact
	// weighted value.
	if math.Abs(exact.Metrics.ARR-sampled.Metrics.ARR) > 0.02 {
		t.Fatalf("exact %v vs sampled %v diverge", exact.Metrics.ARR, sampled.Metrics.ARR)
	}
}

func TestExactDiscreteRequiresDiscrete(t *testing.T) {
	ctx := context.Background()
	ds, _ := Hotels(20, 1)
	dist, _ := UniformLinear(ds.Dim())
	if _, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 2, ExactDiscrete: true}, Exec{}); err == nil {
		t.Fatal("ExactDiscrete with a continuous Θ must error")
	}
	if _, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: []int{0}, ExactDiscrete: true}, Exec{}); err == nil {
		t.Fatal("Evaluate ExactDiscrete with a continuous Θ must error")
	}
}
