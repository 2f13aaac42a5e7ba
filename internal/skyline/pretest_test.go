package skyline

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/regretlab/fam/internal/dataset"
	"github.com/regretlab/fam/internal/rng"
)

// code returns the 15-bit code of x under the one-attribute code map over
// [lo, hi].
func code(lo, hi, x float64) uint64 {
	var w [1]uint64
	newCodeMap([]float64{lo}, []float64{hi}).encode([]float64{x}, w[:])
	return w[0]
}

// TestCodeMapMonotone: the code map must be non-decreasing on [lo, hi],
// so a dominator's codes never fall below its victim's. Random values and
// their ulp neighbours, lo, hi and hi−1ulp are sorted and their codes
// checked pairwise in order; attributes whose width or scale is not finite
// and positive must code everything 0.
func TestCodeMapMonotone(t *testing.T) {
	g := rng.New(3)
	for _, c := range []struct {
		lo, hi float64
		flat   bool // no usable scale: every code is 0
	}{
		{0, 1, false},
		{-3.5, 7.25, false},
		{1, math.Nextafter(1, 2), false},
		{-1e300, 1e300, false},
		{1e-300, 2e-300, false},
		{0, 5e-324, true},                     // subnormal width: the scale overflows
		{0, 1e-305, true},                     // normal width whose scale overflows
		{-1.7e308, 1.7e308, true},             // hi−lo overflows
		{2, 2, true},                          // flat attribute
		{math.Copysign(0, -1), 1e-300, false}, // lo is −0; tiny normal width
	} {
		t.Run(fmt.Sprint(c.lo, c.hi), func(t *testing.T) {
			xs := []float64{c.lo, c.hi, math.Nextafter(c.hi, math.Inf(-1)), math.Nextafter(c.lo, math.Inf(1))}
			for range 2000 {
				u := g.Float64()
				x := min(max(c.lo*(1-u)+c.hi*u, c.lo), c.hi)
				xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
			}
			xs = slices.DeleteFunc(xs, func(x float64) bool { return x < c.lo || x > c.hi })
			slices.Sort(xs)
			prev := uint64(0)
			for _, x := range xs {
				k := code(c.lo, c.hi, x)
				if k > codeMax || (c.flat && k != 0) {
					t.Fatalf("code(%v) = %d out of range (flat %v)", x, k, c.flat)
				}
				if k < prev {
					t.Fatalf("code(%v) = %d below the code %d of a smaller value", x, k, prev)
				}
				prev = k
			}
			if !c.flat && (code(c.lo, c.hi, c.lo) != 0 || code(c.lo, c.hi, c.hi) != codeMax) {
				t.Fatalf("lo, hi coded %d, %d; want 0, %d", code(c.lo, c.hi, c.lo), code(c.lo, c.hi, c.hi), codeMax)
			}
		})
	}
}

// TestPackedPretestLanes: the packed pre-test must agree with the per-lane
// comparison code(r) ≥ code(q) for codes including 0 and codeMax, at every
// d from 1 to 9, across the one/two and two/three code-word boundaries.
// The bucket's float rows always dominate, so dominated reports exactly
// the pre-test's verdict; a dominating row before the scanned range checks
// that the scan starts at from.
func TestPackedPretestLanes(t *testing.T) {
	g := rng.New(9)
	draw := func() float64 {
		switch g.IntN(4) {
		case 0:
			return 0
		case 1:
			return codeMax
		default:
			return float64(g.IntN(codeMax + 1))
		}
	}
	for d := 1; d <= 9; d++ {
		lo, hi := make([]float64, d), make([]float64, d)
		for j := range hi {
			hi[j] = codeMax // scale 1: attribute value x codes to x
		}
		cm := newCodeMap(lo, hi)
		if want := (d + 3) / 4; cm.words != want {
			t.Fatalf("d=%d: %d code words, want %d", d, cm.words, want)
		}
		encode := func(p []float64) []uint64 {
			w := make([]uint64, cm.words)
			cm.encode(p, w)
			return w
		}
		top := make([]float64, d)
		for j := range top {
			top[j] = codeMax
		}
		for trial := range 3000 {
			r, q := make([]float64, d), make([]float64, d)
			for j := range r {
				r[j], q[j] = draw(), draw()
			}
			if trial%3 == 0 {
				copy(q, r) // ties on every lane
				if j := g.IntN(d); trial%2 == 0 && q[j] < codeMax {
					q[j]++ // one lane just out of reach
				}
			}
			want := true
			for j := range r {
				want = want && r[j] >= q[j]
			}
			b := bucket{codes: append(encode(top), encode(r)...)}
			for range 2 * d {
				b.rows = append(b.rows, 1) // both rows dominate qf below
			}
			qf := make([]float64, d)
			var sc scanCounts
			if got := b.dominated(1, 2, qf, encode(q), &sc); got != want {
				t.Fatalf("d=%d r=%v q=%v: pre-test %v, per-lane ≥ %v", d, r, q, got, want)
			}
			if sc.rows != 1 || (sc.exact == 1) != want {
				t.Fatalf("d=%d: counts %+v for verdict %v", d, sc, want)
			}
		}
	}
}

// TestComputeOptsScanCounts pins the window scan's work on 5·10⁴
// anticorrelated 4-d points at any worker count: the rows whose codes
// were compared, and the exact float tests that followed. The pre-test
// must leave at most 2% of the rows to the exact test.
func TestComputeOptsScanCounts(t *testing.T) {
	ds, err := dataset.Synthetic(50_000, 4, dataset.Anticorrelated, 1)
	if err != nil {
		t.Fatal(err)
	}
	const wantRows, wantExact, wantSky = 6_963_697, 37_366, 5581
	for _, workers := range []int{1, 2} {
		var sc scanCounts
		sky, err := computeOpts(context.Background(), ds.Points, ComputeOptions{Workers: workers}, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(sky) != wantSky || sc.rows != wantRows || sc.exact != wantExact {
			t.Fatalf("workers=%d: skyline %d, %d row tests, %d exact; want %d, %d, %d",
				workers, len(sky), sc.rows, sc.exact, wantSky, wantRows, wantExact)
		}
	}
	if 50*wantExact > wantRows {
		t.Fatalf("%d exact tests of %d rows exceed 2%%", wantExact, wantRows)
	}
}
