package skyline

import (
	"slices"
	"testing"

	"github.com/regretlab/fam/internal/dataset"
)

// TestComputeOptsGridPrefilter pins the grid prefilter's mechanism, which
// the equality tests cannot see: on correlated data it must drop most
// points, and only points that a kept point beats on every attribute.
func TestComputeOptsGridPrefilter(t *testing.T) {
	ds, err := dataset.Synthetic(5000, 4, dataset.Correlated, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := ds.Points
	lo, hi := bounds(pts)
	keep := gridSurvivors(pts, lo, hi)
	if 2*len(keep) >= len(pts) {
		t.Fatalf("prefilter kept %d of %d points, want fewer than half", len(keep), len(pts))
	}
	kept := make([]bool, len(pts))
	for _, i := range keep {
		kept[i] = true
	}
	for i, q := range pts {
		if kept[i] {
			continue
		}
		if !slices.ContainsFunc(keep, func(k int) bool { return strictlyAbove(pts[k], q) }) {
			t.Fatalf("dropped point %d %v is not strictly below any kept point", i, q)
		}
	}
	t.Logf("kept %d of %d points", len(keep), len(pts))
}

// strictlyAbove reports whether p exceeds q on every attribute, which the
// grid proves of every dropped point (so p dominates q).
func strictlyAbove(p, q []float64) bool {
	for j, v := range p {
		if v <= q[j] {
			return false
		}
	}
	return true
}

// TestComputeOptsGridSide pins the grid size: the largest L ≥ 2 with
// L^d ≤ n, or no grid when 2^d > n.
func TestComputeOptsGridSide(t *testing.T) {
	for _, c := range []struct{ n, d, side, cells int }{
		{50_000, 4, 14, 38416},
		{100_000, 4, 17, 83521},
		{1_000_000, 4, 31, 923521},
		{1061, 1, 1061, 1061},
		{1061, 9, 2, 512},
		{1061, 10, 2, 1024},
		{1061, 11, 0, 0},
		{16, 4, 2, 16},
		{15, 4, 0, 0},
		{1, 1, 0, 0},
		{125, 3, 5, 125},
	} {
		if side, cells := gridSide(c.n, c.d); side != c.side || cells != c.cells {
			t.Errorf("gridSide(%d, %d) = %d, %d; want %d, %d", c.n, c.d, side, cells, c.side, c.cells)
		}
	}
}
