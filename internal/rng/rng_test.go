package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := New(43)
	same := 0
	a42 := New(42)
	for i := 0; i < 100; i++ {
		if a42.Float64() == c.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should diverge, %d/100 collisions", same)
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(1)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Normal()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	g := New(2)
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += g.Gamma(shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.08*math.Max(1, shape) {
			t.Fatalf("gamma(%v) mean = %v", shape, mean)
		}
	}
	if g.Gamma(0) != 0 || g.Gamma(-1) != 0 {
		t.Fatal("non-positive shape must return 0")
	}
}

func TestDirichletOnSimplex(t *testing.T) {
	g := New(3)
	for i := 0; i < 100; i++ {
		w := g.Dirichlet(1, 5)
		var sum float64
		for _, v := range w {
			if v < 0 {
				t.Fatal("negative Dirichlet component")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("Dirichlet sum = %v", sum)
		}
	}
	// Symmetric Dirichlet(1): each component has mean 1/dim.
	const n = 50000
	dim := 4
	means := make([]float64, dim)
	for i := 0; i < n; i++ {
		w := g.Dirichlet(1, dim)
		for j, v := range w {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= n
		if math.Abs(means[j]-0.25) > 0.01 {
			t.Fatalf("Dirichlet mean[%d] = %v", j, means[j])
		}
	}
}

func TestUnitSphereNonNeg(t *testing.T) {
	g := New(4)
	for i := 0; i < 200; i++ {
		w := g.UnitSphereNonNeg(6)
		var norm float64
		for _, v := range w {
			if v < 0 {
				t.Fatal("component must be non-negative")
			}
			norm += v * v
		}
		if math.Abs(norm-1) > 1e-12 {
			t.Fatalf("norm^2 = %v", norm)
		}
	}
}

func TestChoice(t *testing.T) {
	g := New(5)
	idx := g.Choice(10, 4)
	if len(idx) != 4 {
		t.Fatalf("Choice returned %d items", len(idx))
	}
	seen := map[int]bool{}
	for _, v := range idx {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad choice %v", idx)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Choice(2,3) should panic")
		}
	}()
	g.Choice(2, 3)
}

func TestCategorical(t *testing.T) {
	g := New(6)
	counts := make([]int, 3)
	weights := []float64{1, 2, 7}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Categorical(weights)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / 10
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("categorical p[%d] = %v, want %v", i, got, want)
		}
	}
	// Degenerate all-zero weights fall back to uniform without panicking.
	for i := 0; i < 10; i++ {
		if v := g.Categorical([]float64{0, 0}); v < 0 || v > 1 {
			t.Fatalf("zero-weight categorical out of range: %d", v)
		}
	}
}

func TestCategoricalCDFBoundaries(t *testing.T) {
	g := New(8)
	cdf := []float64{0.25, 0.5, 1.0}
	counts := make([]int, 3)
	for i := 0; i < 60000; i++ {
		counts[g.CategoricalCDF(cdf)]++
	}
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("all buckets should be hit: %v", counts)
	}
	if math.Abs(float64(counts[2])/60000-0.5) > 0.02 {
		t.Fatalf("last bucket p = %v", float64(counts[2])/60000)
	}
}

// Property: Choice(n, n) always yields a permutation.
func TestPermProperty(t *testing.T) {
	g := New(9)
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		p := g.Choice(n, n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
