package sampling

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/utility"
)

func TestSampleSizeMatchesTableV(t *testing.T) {
	// The paper's Table V values.
	want := []struct {
		eps, sigma float64
		n          int
	}{
		{0.01, 0.1, 69078},
		{0.001, 0.1, 6907756},
		{0.0001, 0.1, 690775528},
		{0.01, 0.05, 89872},
		{0.001, 0.05, 8987197},
		{0.0001, 0.05, 898719682},
	}
	for _, w := range want {
		got, err := SampleSize(w.eps, w.sigma)
		if err != nil {
			t.Fatal(err)
		}
		// The paper prints floor/rounded values (69,077 vs our ceil 69,078);
		// accept ±1 on the ceiling.
		if got != w.n && got != w.n-1 && got != w.n+1 {
			t.Errorf("SampleSize(%v,%v) = %d, want ~%d", w.eps, w.sigma, got, w.n)
		}
	}
}

func TestSampleSizeValidation(t *testing.T) {
	for _, c := range []struct{ eps, sigma float64 }{
		{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}, {-0.1, 0.5}, {0.5, -0.5},
	} {
		if _, err := SampleSize(c.eps, c.sigma); err == nil {
			t.Errorf("SampleSize(%v,%v) should error", c.eps, c.sigma)
		}
	}
}

func TestEpsInvertsSampleSize(t *testing.T) {
	for _, eps := range []float64{0.1, 0.01, 0.005} {
		n, err := SampleSize(eps, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eps(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got > eps+1e-9 {
			t.Errorf("Eps(SampleSize(%v)) = %v > %v", eps, got, eps)
		}
	}
	if _, err := Eps(0, 0.1); err == nil {
		t.Fatal("N=0 must error")
	}
	if _, err := Eps(10, 0); err == nil {
		t.Fatal("sigma=0 must error")
	}
}

func TestTableV(t *testing.T) {
	rows := TableV()
	if len(rows) != 6 {
		t.Fatalf("TableV has %d rows", len(rows))
	}
	if rows[0].N >= rows[1].N || rows[1].N >= rows[2].N {
		t.Fatal("N must grow as eps shrinks")
	}
	if rows[0].N >= rows[3].N {
		t.Fatal("N must grow as sigma shrinks")
	}
}

func TestSample(t *testing.T) {
	dist, _ := utility.NewUniformSimplexLinear(3)
	g := rng.New(1)
	fs, err := Sample(dist, 10, g)
	if err != nil || len(fs) != 10 {
		t.Fatalf("Sample = %d funcs, %v", len(fs), err)
	}
	if _, err := Sample(nil, 10, g); err == nil {
		t.Fatal("nil distribution must error")
	}
	if _, err := Sample(dist, 0, g); err == nil {
		t.Fatal("zero count must error")
	}
}

// Property: SampleSize is antitone in both eps and sigma.
func TestSampleSizeMonotoneProperty(t *testing.T) {
	f := func(e1, e2, s1, s2 uint16) bool {
		eps1 := 0.001 + float64(e1%500)/1000
		eps2 := 0.001 + float64(e2%500)/1000
		sig1 := 0.001 + float64(s1%500)/1000
		sig2 := 0.001 + float64(s2%500)/1000
		if eps1 > eps2 {
			eps1, eps2 = eps2, eps1
		}
		if sig1 > sig2 {
			sig1, sig2 = sig2, sig1
		}
		nBig, err1 := SampleSize(eps1, sig1) // smaller params => bigger N
		nSmall, err2 := SampleSize(eps2, sig2)
		if err1 != nil || err2 != nil {
			return false
		}
		return nBig >= nSmall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Statistical check of the Chernoff guarantee itself: estimate the mean of
// a Bernoulli(0.3) "regret ratio" with N = SampleSize(0.05, 0.1) samples;
// the empirical deviation should be below eps in (far) more than 90% of
// trials.
func TestChernoffEmpiricalCoverage(t *testing.T) {
	eps, sigma := 0.05, 0.1
	n, err := SampleSize(eps, sigma)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(77)
	const trials = 30
	bad := 0
	for tr := 0; tr < trials; tr++ {
		var sum float64
		for i := 0; i < n; i++ {
			if g.Float64() < 0.3 {
				sum++
			}
		}
		if math.Abs(sum/float64(n)-0.3) >= eps {
			bad++
		}
	}
	if bad > trials/10 {
		t.Fatalf("deviation exceeded eps in %d/%d trials", bad, trials)
	}
}

// TestSampleSizeOverflow: a bound too large for an int is an error, not
// a wrapped negative count.
func TestSampleSizeOverflow(t *testing.T) {
	if _, err := SampleSize(1e-10, 0.1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("SampleSize(1e-10, 0.1): err = %v, want ErrTooLarge", err)
	}
	n, err := SampleSize(1e-7, 0.1)
	if err != nil || n <= 0 {
		t.Fatalf("SampleSize(1e-7, 0.1) = %d, %v; want a positive count", n, err)
	}
}
