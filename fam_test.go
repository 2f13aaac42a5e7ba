package fam

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/regretlab/fam/internal/dataset"
	"github.com/regretlab/fam/internal/rng"
)

func hotelSetup(t *testing.T) (*Dataset, Distribution) {
	t.Helper()
	ds, err := Hotels(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	return ds, dist
}

func TestSelectValidation(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	if _, _, err := Select(ctx, Query{Dist: dist, K: 3}, Exec{}); err == nil {
		t.Fatal("nil dataset must error")
	}
	if _, _, err := Select(ctx, Query{Data: ds, K: 3}, Exec{}); err == nil {
		t.Fatal("nil distribution must error")
	}
	if _, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 0}, Exec{}); err == nil {
		t.Fatal("K=0 must error")
	}
	if _, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 1000}, Exec{}); err == nil {
		t.Fatal("K>n must error")
	}
	wrongDim, _ := UniformLinear(3)
	if _, _, err := Select(ctx, Query{Data: ds, Dist: wrongDim, K: 3}, Exec{}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 3, Algorithm: Algorithm(99)}, Exec{}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	if _, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 3, Epsilon: 2}, Exec{}); err == nil {
		t.Fatal("bad epsilon must error")
	}
}

func TestSelectDefaultPipeline(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	res, tel, err := Select(ctx, Query{Data: ds, Dist: dist, K: 5, Seed: 1}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 5 || len(res.Labels) != 5 {
		t.Fatalf("result %+v", res)
	}
	for i := 1; i < len(res.Indices); i++ {
		if res.Indices[i] <= res.Indices[i-1] {
			t.Fatalf("indices not ascending: %v", res.Indices)
		}
	}
	if res.Metrics.ARR < 0 || res.Metrics.ARR > 1 {
		t.Fatalf("ARR = %v", res.Metrics.ARR)
	}
	// Monotone linear Θ => skyline preprocessing engaged.
	if res.SkylineSize >= ds.N() {
		t.Fatalf("skyline preprocessing skipped: %d", res.SkylineSize)
	}
	if res.ExactARR >= 0 {
		t.Fatal("ExactARR should be unset for sampled algorithms")
	}
	if tel.Stats.Iterations == 0 {
		t.Fatal("shrink stats missing")
	}
	// Labels match the dataset.
	for i, idx := range res.Indices {
		if res.Labels[i] != ds.Label(idx) {
			t.Fatalf("label mismatch at %d", i)
		}
	}
}

func TestSelectDeterminism(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	a, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 4, Seed: 9}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 4, Seed: 9}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("same seed must reproduce the selection")
		}
	}
	if a.Metrics.ARR != b.Metrics.ARR {
		t.Fatal("same seed must reproduce metrics")
	}
}

func TestSelectAllAlgorithmsRun(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	algos := []Algorithm{GreedyShrink, GreedyShrinkLazy, GreedyShrinkNaive, BruteForce, MRRGreedy, SkyDom, KHit, GreedyAdd}
	arr := map[Algorithm]float64{}
	for _, a := range algos {
		res, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 3, Seed: 5, Algorithm: a, SampleSize: 400}, Exec{})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if len(res.Indices) != 3 {
			t.Fatalf("%v: %v", a, res.Indices)
		}
		arr[a] = res.Metrics.ARR
	}
	// The greedy variants agree with each other and with brute force being
	// no worse than them.
	if arr[GreedyShrink] != arr[GreedyShrinkLazy] || arr[GreedyShrink] != arr[GreedyShrinkNaive] {
		t.Fatalf("greedy variants disagree: %v", arr)
	}
	if arr[BruteForce] > arr[GreedyShrink]+1e-12 {
		t.Fatalf("brute force %v worse than greedy %v", arr[BruteForce], arr[GreedyShrink])
	}
}

func TestSelectDP2D(t *testing.T) {
	ctx := context.Background()
	ds, err := Synthetic(400, 2, Independent, 11)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformBoxLinear(2)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 3, Seed: 1, Algorithm: DP2D, SampleSize: 5000}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactARR < 0 {
		t.Fatal("DP must report exact ARR")
	}
	// Sampled metric should be close to the exact value.
	if math.Abs(res.ExactARR-res.Metrics.ARR) > 0.03 {
		t.Fatalf("exact %v vs sampled %v", res.ExactARR, res.Metrics.ARR)
	}
	// DP is optimal: no sampled algorithm may do meaningfully better.
	gs, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 3, Seed: 1, Algorithm: GreedyShrink, SampleSize: 5000}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if gs.Metrics.ARR < res.Metrics.ARR-0.03 {
		t.Fatalf("greedy %v beat DP optimum %v by too much", gs.Metrics.ARR, res.Metrics.ARR)
	}
}

func TestSelectNonMonotoneSkipsSkyline(t *testing.T) {
	ctx := context.Background()
	// Latent pipeline: non-monotone Θ.
	rd, err := dataset.SimulatedRatings(60, 50, 3, 3, 0.5, 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := LearnDistribution(rd.Ratings, RatingsPipelineConfig{
		NumUsers: rd.NumUsers, NumItems: rd.NumItems, Rank: 3, Components: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.TrainRMSE <= 0 {
		t.Fatalf("rmse = %v", pipe.TrainRMSE)
	}
	res, _, err := Select(ctx, Query{Data: pipe.Items, Dist: pipe.Dist, K: 5, Seed: 3, SampleSize: 800}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkylineSize != pipe.Items.N() {
		t.Fatalf("skyline must be skipped for non-monotone Θ: %d vs %d", res.SkylineSize, pipe.Items.N())
	}
	if len(res.Indices) != 5 {
		t.Fatalf("indices %v", res.Indices)
	}
	// The learned Θ is non-degenerate: selection should satisfy most users.
	if res.Metrics.ARR > 0.4 {
		t.Fatalf("latent ARR suspiciously high: %v", res.Metrics.ARR)
	}
}

func TestSelectTableDistribution(t *testing.T) {
	ctx := context.Background()
	// The paper's Table I: 4 hotels, 4 users.
	tables := [][]float64{
		{0.9, 0.7, 0.2, 0.4},
		{0.6, 1, 0.5, 0.2},
		{0.2, 0.6, 0.3, 1},
		{0.1, 0.2, 1, 0.9},
	}
	dist, err := TableUsers(tables, []float64{1, 1, 1, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{
		Name:   "hotels-tableI",
		Labels: []string{"Holiday Inn", "Shangri la", "Intercontinental", "Hilton"},
		Points: [][]float64{{0}, {1}, {2}, {3}},
	}
	res, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 2, Seed: 4, SampleSize: 4000, Algorithm: BruteForce}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 2 {
		t.Fatalf("indices %v", res.Indices)
	}
	// {Shangri la, Intercontinental} covers Jerry+Sam exactly and is the
	// best pair: verify via Evaluate comparisons against all pairs.
	best := res.Metrics.ARR
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			m, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: []int{a, b}, Seed: 4, SampleSize: 4000}, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			if m.ARR < best-1e-9 {
				t.Fatalf("pair (%d,%d) arr %v beats brute force %v", a, b, m.ARR, best)
			}
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	if _, err := Evaluate(ctx, Query{Dist: dist, ExplicitSet: []int{0}}, Exec{}); err == nil {
		t.Fatal("nil dataset must error")
	}
	if _, err := Evaluate(ctx, Query{Data: ds, Dist: dist, ExplicitSet: nil}, Exec{}); err == nil {
		t.Fatal("empty set must error")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Evaluate(cctx, Query{Data: ds, Dist: dist, ExplicitSet: []int{0}}, Exec{}); err == nil {
		t.Fatal("canceled context must error")
	}
}

func TestSampleSizeReexport(t *testing.T) {
	n, err := SampleSize(0.1, 0.1)
	if err != nil || n != 691 {
		t.Fatalf("SampleSize = %d, %v", n, err)
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	ds, _ := Hotels(10, 2)
	var buf bytes.Buffer
	if err := SaveCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&buf, "again")
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.Dim() != ds.Dim() {
		t.Fatal("round trip shape mismatch")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		GreedyShrink: "greedy-shrink", GreedyShrinkLazy: "greedy-shrink-lazy",
		GreedyShrinkNaive: "greedy-shrink-naive", DP2D: "dp", BruteForce: "brute-force",
		MRRGreedy: "mrr-greedy", SkyDom: "sky-dom", KHit: "k-hit",
		GreedyAdd: "greedy-add", Algorithm(99): "unknown",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestSelectCESDistribution(t *testing.T) {
	ctx := context.Background()
	ds, err := Synthetic(150, 4, Independent, 21)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := CESUniform(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 4, Seed: 2, SampleSize: 500}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	// CES is monotone: skyline preprocessing must engage.
	if res.SkylineSize >= ds.N() {
		t.Fatalf("skyline not applied for CES: %d", res.SkylineSize)
	}
	// MRRGreedy under CES must fall back to the sampled variant (and run).
	res2, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 4, Seed: 2, SampleSize: 500, Algorithm: MRRGreedy}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Indices) != 4 {
		t.Fatalf("mrr-greedy CES: %v", res2.Indices)
	}
}

func TestSelectDisableSkyline(t *testing.T) {
	ctx := context.Background()
	ds, dist := hotelSetup(t)
	res, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 3, Seed: 1, DisableSkyline: true, SampleSize: 300}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkylineSize != ds.N() {
		t.Fatalf("skyline applied despite DisableSkyline: %d", res.SkylineSize)
	}
}

// Skyline preprocessing must not change the selected set (monotone Θ).
func TestSkylineRestrictionPreservesResult(t *testing.T) {
	ctx := context.Background()
	g := rng.New(5)
	_ = g
	ds, err := Synthetic(200, 3, Independent, 31)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(3)
	if err != nil {
		t.Fatal(err)
	}
	withSky, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 5, Seed: 8, SampleSize: 600}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := Select(ctx, Query{Data: ds, Dist: dist, K: 5, Seed: 8, SampleSize: 600, DisableSkyline: true}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(withSky.Indices) != len(without.Indices) {
		t.Fatalf("%v vs %v", withSky.Indices, without.Indices)
	}
	for i := range withSky.Indices {
		if withSky.Indices[i] != without.Indices[i] {
			t.Fatalf("skyline restriction changed the answer: %v vs %v", withSky.Indices, without.Indices)
		}
	}
	if math.Abs(withSky.Metrics.ARR-without.Metrics.ARR) > 1e-12 {
		t.Fatalf("arr differs: %v vs %v", withSky.Metrics.ARR, without.Metrics.ARR)
	}
}

// nanAtFunc is the sum of a point's attributes, except NaN at the point
// equal to at: keyed by the point's values, not by its index, so it
// fails at the same dataset row however the candidates are numbered.
type nanAtFunc struct{ at []float64 }

func (f nanAtFunc) Value(_ int, p []float64) float64 {
	if p[0] == f.at[0] && p[1] == f.at[1] {
		return math.NaN()
	}
	return p[0] + p[1]
}

type nanAtDist struct{ at []float64 }

func (d nanAtDist) Sample(*rng.RNG) UtilityFunc { return nanAtFunc(d) }
func (nanAtDist) Monotone() bool                { return true }
func (nanAtDist) Dim() int                      { return 2 }
func (nanAtDist) Name() string                  { return "nan-at" }

// TestInvalidUtilityNamesDatasetRow: an invalid utility is reported at
// its dataset row whether or not the skyline and the coreset renumber
// the candidates. Row 6 is the skyline's third point, which the
// instance numbers 2.
func TestInvalidUtilityNamesDatasetRow(t *testing.T) {
	ds := &Dataset{Name: "nan-at", Points: [][]float64{
		{0.1, 0.1}, {0.9, 0.1}, {0.2, 0.2}, {0.8, 0.5}, {0.3, 0.3},
		{0.1, 0.05}, {0.6, 0.7}, {0.4, 0.8}, {0.1, 0.95}, {0.2, 0.25},
	}}
	dist := nanAtDist{at: ds.Points[6]}
	e := NewEngine(EngineConfig{})
	defer e.Close()
	if err := e.Register("nan-at", ds, dist); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []Query{
		{K: 2, SampleSize: 5, Seed: 1},
		{K: 2, SampleSize: 5, Seed: 1, Coreset: true},
		{K: 2, SampleSize: 5, Seed: 1, DisableSkyline: true},
	} {
		label := fmt.Sprintf("coreset=%t skyline=%t", q.Coreset, !q.DisableSkyline)
		one := q
		one.Data, one.Dist = ds, dist
		_, _, err := Select(ctx, one, Exec{})
		if err == nil || !strings.Contains(err.Error(), "returned NaN for point 6 ") {
			t.Errorf("Select %s: err = %v, want NaN at point 6", label, err)
		}
		q.Dataset = "nan-at"
		_, _, err = e.Select(ctx, q, Exec{})
		if err == nil || !strings.Contains(err.Error(), "returned NaN for point 6 ") {
			t.Errorf("Engine.Select %s: err = %v, want NaN at point 6", label, err)
		}
	}
}
