package core

import (
	"math"
	"testing"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/utility"
)

// randomInstance builds a random linear FAM instance for tests.
func randomInstance(t *testing.T, n, d, N int, seed uint64) *Instance {
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
	in, err := NewInstance(pts, funcs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	dist, _ := utility.NewUniformSimplexLinear(2)
	g := rng.New(1)
	funcs, _ := sampling.Sample(dist, 3, g)
	if _, err := NewInstance(nil, funcs, Options{}); err == nil {
		t.Fatal("empty points must error")
	}
	if _, err := NewInstance([][]float64{{1, 2}}, nil, Options{}); err == nil {
		t.Fatal("no funcs must error")
	}
	if _, err := NewInstance([][]float64{{1, 2}}, []utility.Func{nil}, Options{}); err == nil {
		t.Fatal("nil func must error")
	}
}

func TestUtilityCacheModes(t *testing.T) {
	mk := func(budget int64) *Instance {
		pts := [][]float64{{0.2, 0.8}, {0.9, 0.1}}
		funcs := []utility.Func{
			utility.Linear{W: []float64{1, 0}},
			utility.Linear{W: []float64{0, 1}},
		}
		in, err := NewInstance(pts, funcs, Options{CacheBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	cached := mk(0)    // default budget, tiny instance => cached
	uncached := mk(-1) // disabled
	if !cached.Cached() || uncached.Cached() {
		t.Fatalf("cache flags: %v %v", cached.Cached(), uncached.Cached())
	}
	for u := 0; u < 2; u++ {
		for p := 0; p < 2; p++ {
			if cached.Utility(u, p) != uncached.Utility(u, p) {
				t.Fatal("cache must not change values")
			}
		}
	}
}

func TestPreprocessingBestPoints(t *testing.T) {
	pts := [][]float64{{1, 0}, {0, 1}, {0.4, 0.4}}
	funcs := []utility.Func{
		utility.Linear{W: []float64{1, 0}},     // best: point 0
		utility.Linear{W: []float64{0, 1}},     // best: point 1
		utility.Linear{W: []float64{0.5, 0.5}}, // 0.5 vs 0.5 vs 0.4 — tie: first index wins
	}
	in, err := NewInstance(pts, funcs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		u, best int
		sat     float64
	}{{0, 0, 1}, {1, 1, 1}, {2, 0, 0.5}}
	for _, c := range cases {
		b, s := in.BestInDatabase(c.u)
		if b != c.best || math.Abs(s-c.sat) > 1e-12 {
			t.Fatalf("user %d: best=%d sat=%v, want %d %v", c.u, b, s, c.best, c.sat)
		}
	}
	if in.DegenerateUsers() != 0 {
		t.Fatal("no degenerate users expected")
	}
}

func TestDegenerateUsers(t *testing.T) {
	pts := [][]float64{{0, 0}, {0, 0}}
	funcs := []utility.Func{
		utility.Linear{W: []float64{1, 1}}, // zero utility everywhere
		utility.Table{U: []float64{0.5, 0.2}},
	}
	in, err := NewInstance(pts, funcs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.DegenerateUsers() != 1 {
		t.Fatalf("degenerate = %d, want 1", in.DegenerateUsers())
	}
	b, _ := in.BestInDatabase(0)
	if b != -1 {
		t.Fatal("degenerate user must have best -1")
	}
	// Degenerate users contribute rr = 0.
	arr, err := in.ARR([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	// User 1: sat({1}) = 0.2, satD = 0.5 => rr = 0.6; average over 2 users.
	if math.Abs(arr-0.3) > 1e-12 {
		t.Fatalf("ARR = %v, want 0.3", arr)
	}
}

func TestARRHandComputed(t *testing.T) {
	// The paper's Table I example: 4 hotels, 4 users, S = {Intercontinental,
	// Hilton} (indices 2, 3). Utilities are pre-normalized, satD = 1 each.
	pts := [][]float64{{0}, {1}, {2}, {3}} // placeholder coordinates
	funcs := []utility.Func{
		utility.Table{U: []float64{0.9, 0.7, 0.2, 0.4}}, // Alex
		utility.Table{U: []float64{0.6, 1, 0.5, 0.2}},   // Jerry
		utility.Table{U: []float64{0.2, 0.6, 0.3, 1}},   // Tom
		utility.Table{U: []float64{0.1, 0.2, 1, 0.9}},   // Sam
	}
	in, err := NewInstance(pts, funcs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := in.ARR([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// rr: Alex (0.9-0.4)/0.9 = 5/9, Jerry (1-0.5)/1 = 0.5, Tom 0, Sam 0
	// => arr = (5/9 + 1/2) / 4 = 19/72.
	if want := 19.0 / 72.0; math.Abs(arr-want) > 1e-12 {
		t.Fatalf("ARR = %v, want %v", arr, want)
	}
	// Full database: arr = 0.
	arrAll, _ := in.ARR([]int{0, 1, 2, 3})
	if arrAll != 0 {
		t.Fatalf("arr(D) = %v, want 0", arrAll)
	}
}

func TestRegretRatiosValidation(t *testing.T) {
	in := randomInstance(t, 5, 2, 10, 1)
	if _, err := in.ARR(nil); err == nil {
		t.Fatal("empty set must error")
	}
	if _, err := in.ARR([]int{0, 0}); err == nil {
		t.Fatal("duplicate index must error")
	}
	if _, err := in.ARR([]int{-1}); err == nil {
		t.Fatal("negative index must error")
	}
	if _, err := in.ARR([]int{99}); err == nil {
		t.Fatal("out-of-range index must error")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	in := randomInstance(t, 20, 3, 500, 2)
	m, err := in.Evaluate([]int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ARR < 0 || m.ARR > 1 {
		t.Fatalf("ARR = %v", m.ARR)
	}
	if m.StdDev < 0 || math.Abs(m.StdDev*m.StdDev-m.VRR) > 1e-12 {
		t.Fatalf("StdDev/VRR inconsistent: %v %v", m.StdDev, m.VRR)
	}
	if len(m.Percentiles) != len(DefaultPercentiles) {
		t.Fatalf("percentile count %d", len(m.Percentiles))
	}
	for i := 1; i < len(m.Percentiles); i++ {
		if m.Percentiles[i] < m.Percentiles[i-1] {
			t.Fatal("percentiles must be non-decreasing")
		}
	}
	if m.MaxRR != m.Percentiles[len(m.Percentiles)-1] {
		t.Fatalf("MaxRR %v != 100th percentile %v", m.MaxRR, m.Percentiles[len(m.Percentiles)-1])
	}
	if m.MaxRR < m.ARR {
		t.Fatal("max regret ratio must dominate the average")
	}
	// Custom levels.
	m2, err := in.Evaluate([]int{0}, []float64{50})
	if err != nil || len(m2.Percentiles) != 1 {
		t.Fatalf("custom levels: %v %v", m2.Percentiles, err)
	}
}

// TestInstanceMemoryFootprint pins the exact-size accounting the
// serving cache's byte budgets rely on, for cached, uncached, and
// weighted instances, and checks WithExecution clones carry their
// execution knobs without copying artifacts.
func TestInstanceMemoryFootprint(t *testing.T) {
	points := [][]float64{{1, 0}, {0, 1}, {0.4, 0.7}}
	funcs := []utility.Func{
		utility.Linear{W: []float64{0.5, 0.5}},
		utility.Linear{W: []float64{0.9, 0.1}},
	}
	const sliceHeader = 24
	n, N := int64(3), int64(2)

	cached, err := NewInstance(points, funcs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sliceHeader + N*n*8 + // flat matrix backing array
		sliceHeader + N*8 + sliceHeader + N*4 // satD + bestD
	if got := cached.MemoryFootprint(); got != want {
		t.Fatalf("cached footprint = %d, want %d", got, want)
	}

	f32, err := NewInstance(points, funcs, Options{Float32: true})
	if err != nil {
		t.Fatal(err)
	}
	wantF32 := sliceHeader + N*n*4 + // float32 halves matrix bytes
		sliceHeader + N*8 + sliceHeader + N*4
	if got := f32.MemoryFootprint(); got != wantF32 {
		t.Fatalf("float32 footprint = %d, want %d", got, wantF32)
	}

	uncached, err := NewInstance(points, funcs, Options{CacheBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := uncached.MemoryFootprint(), sliceHeader+N*8+sliceHeader+N*4; got != want {
		t.Fatalf("uncached footprint = %d, want %d", got, want)
	}

	weighted, err := NewInstance(points, funcs, Options{Weights: []float64{0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if got := weighted.MemoryFootprint(); got != want+sliceHeader+N*8 {
		t.Fatalf("weighted footprint = %d, want %d", got, want+sliceHeader+N*8)
	}

	// WithExecution: knobs move, artifacts (and their accounting) don't.
	clone := cached.WithExecution(3, nil)
	if clone.Parallelism() != 3 || clone.Pool() != nil {
		t.Fatalf("clone knobs = (%d, %v)", clone.Parallelism(), clone.Pool())
	}
	if clone.MemoryFootprint() != cached.MemoryFootprint() {
		t.Fatal("clone accounts different bytes than its parent")
	}
	cached.SetParallelism(5)
	if cached.Parallelism() != 5 || clone.Parallelism() != 3 {
		t.Fatal("SetParallelism leaked between clone and parent")
	}
}
