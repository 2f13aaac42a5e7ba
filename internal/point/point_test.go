package point

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{0, 0}, true},
		{[]float64{1, 0}, []float64{0, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equality is not dominance
		{[]float64{1, 1}, []float64{1, 0}, true},
		{[]float64{0, 0}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("Dominates(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

// Property: dominance is antisymmetric and irreflexive.
func TestDominanceAntisymmetry(t *testing.T) {
	f := func(a, b [3]uint8) bool {
		p := []float64{float64(a[0]), float64(a[1]), float64(a[2])}
		q := []float64{float64(b[0]), float64(b[1]), float64(b[2])}
		if Dominates(p, p) {
			return false
		}
		return !(Dominates(p, q) && Dominates(q, p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: dominance is transitive.
func TestDominanceTransitivity(t *testing.T) {
	f := func(a, b, c [3]uint8) bool {
		p := []float64{float64(a[0]), float64(a[1]), float64(a[2])}
		q := []float64{float64(b[0]), float64(b[1]), float64(b[2])}
		r := []float64{float64(c[0]), float64(c[1]), float64(c[2])}
		if Dominates(p, q) && Dominates(q, r) {
			return Dominates(p, r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if _, err := Validate(nil); err == nil {
		t.Fatal("empty set must error")
	}
	if _, err := Validate([][]float64{{}}); err == nil {
		t.Fatal("zero-dimensional must error")
	}
	if _, err := Validate([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged must error")
	}
	if _, err := Validate([][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN must error")
	}
	if _, err := Validate([][]float64{{1, math.Inf(1)}}); err == nil {
		t.Fatal("Inf must error")
	}
	d, err := Validate([][]float64{{1, 2}, {3, 4}})
	if err != nil || d != 2 {
		t.Fatalf("Validate = (%v, %v)", d, err)
	}
}

func TestNormalize(t *testing.T) {
	pts := [][]float64{{0, 10, 5}, {10, 20, 5}, {5, 15, 5}}
	norm, err := Normalize(pts)
	if err != nil {
		t.Fatal(err)
	}
	if norm[0][0] != 0 || norm[1][0] != 1 || norm[2][0] != 0.5 {
		t.Fatalf("attribute 0 = %v %v %v", norm[0][0], norm[1][0], norm[2][0])
	}
	if norm[0][1] != 0 || norm[1][1] != 1 {
		t.Fatal("attribute 1 not min-max scaled")
	}
	// Constant attribute maps to 1.
	for i := range norm {
		if norm[i][2] != 1 {
			t.Fatalf("constant attribute should map to 1, got %v", norm[i][2])
		}
	}
	// Input untouched.
	if pts[0][0] != 0 || pts[1][1] != 20 {
		t.Fatal("Normalize must not modify input")
	}
}

// Property: normalized values are always within [0, 1].
func TestNormalizeRangeProperty(t *testing.T) {
	f := func(raw [4][2]int8) bool {
		pts := make([][]float64, 4)
		for i, r := range raw {
			pts[i] = []float64{float64(r[0]), float64(r[1])}
		}
		norm, err := Normalize(pts)
		if err != nil {
			return false
		}
		for _, p := range norm {
			for _, v := range p {
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSelect(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	sub := Select(pts, []int{2, 0})
	if len(sub) != 2 || sub[0][0] != 3 || sub[1][0] != 1 {
		t.Fatalf("Select = %v", sub)
	}
}
