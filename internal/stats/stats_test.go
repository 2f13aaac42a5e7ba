package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	m, err := Mean(xs)
	if err != nil || m != 2.5 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
	v, err := Variance(xs)
	if err != nil || math.Abs(v-1.25) > 1e-12 {
		t.Fatalf("Variance = %v, %v", v, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("empty Mean must error")
	}
	if _, err := Variance(nil); err == nil {
		t.Fatal("empty Variance must error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4} // sorted: 1 2 3 4 5
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {60, 3}, {80, 4}, {100, 5}, {99, 5},
	}
	for _, c := range cases {
		got, err := Percentiles(xs, []float64{c.p})
		if err != nil || got[0] != c.want {
			t.Errorf("Percentiles(%v) = %v (%v), want %v", c.p, got, err, c.want)
		}
	}
	if _, err := Percentiles(xs, []float64{-1}); err == nil {
		t.Fatal("negative percentile must error")
	}
	if _, err := Percentiles(xs, []float64{101}); err == nil {
		t.Fatal("percentile > 100 must error")
	}
	// Input is not modified.
	if xs[0] != 5 {
		t.Fatal("Percentiles must not sort the input in place")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{0.1, 0.9, 0.5}
	got, err := Percentiles(xs, []float64{0, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.1 || got[1] != 0.5 || got[2] != 0.9 {
		t.Fatalf("Percentiles = %v", got)
	}
	if _, err := Percentiles(nil, []float64{50}); err == nil {
		t.Fatal("empty sample must error")
	}
	if _, err := Percentiles(xs, []float64{150}); err == nil {
		t.Fatal("bad percentile must error")
	}
}

// Property: Percentiles is monotone in p, and one call over several p
// agrees with one call per p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint8, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		va, err1 := Percentiles(xs, []float64{a})
		vb, err2 := Percentiles(xs, []float64{b})
		if err1 != nil || err2 != nil {
			return false
		}
		multi, err := Percentiles(xs, []float64{a, b})
		if err != nil || multi[0] != va[0] || multi[1] != vb[0] {
			return false
		}
		return va[0] <= vb[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the p=100 percentile is the max and p=0 is the min; the mean
// lies between them.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		mean, err := Mean(xs)
		if err != nil {
			return false
		}
		ends, err := Percentiles(xs, []float64{0, 100})
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		return ends[0] == lo && ends[1] == hi &&
			mean >= lo-1e-12 && mean <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
