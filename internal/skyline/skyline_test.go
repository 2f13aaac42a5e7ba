package skyline

import (
	"testing"
	"testing/quick"

	"github.com/regretlab/fam/internal/bitset"
	"github.com/regretlab/fam/internal/point"
	"github.com/regretlab/fam/internal/rng"
)

// ComputeBNL returns the skyline via the block-nested-loop reference
// algorithm, the oracle the tests check Compute and ComputeOpts against.
func ComputeBNL(points [][]float64) ([]int, error) {
	if _, err := point.Validate(points); err != nil {
		return nil, err
	}
	var out []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out, nil
}

func TestComputeSimple(t *testing.T) {
	pts := [][]float64{
		{1, 0},     // skyline
		{0, 1},     // skyline
		{0.5, 0},   // dominated by {1,0}
		{0.6, 0.6}, // skyline
		{0.6, 0.5}, // dominated by {0.6,0.6}
	}
	idx, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3}
	if len(idx) != len(want) {
		t.Fatalf("skyline = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("skyline = %v, want %v", idx, want)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := ComputeBNL([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged input must error")
	}
}

func TestDuplicatesKept(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {0, 0}}
	idx, err := Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Equal points do not dominate each other; both stay.
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("skyline with duplicates = %v", idx)
	}
}

// Property: SFS and BNL agree on random data, every skyline point is
// undominated, and every non-skyline point is dominated by some skyline
// point.
func TestComputeMatchesBNLProperty(t *testing.T) {
	g := rng.New(1234)
	f := func(nRaw, dRaw uint8) bool {
		n := int(nRaw%40) + 1
		d := int(dRaw%4) + 1
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				// Coarse grid to force ties and duplicates.
				p[j] = float64(g.IntN(5))
			}
			pts[i] = p
		}
		sfs, err := Compute(pts)
		if err != nil {
			return false
		}
		bnl, err := ComputeBNL(pts)
		if err != nil {
			return false
		}
		if len(sfs) != len(bnl) {
			return false
		}
		for i := range sfs {
			if sfs[i] != bnl[i] {
				return false
			}
		}
		inSky := make(map[int]bool, len(sfs))
		for _, i := range sfs {
			inSky[i] = true
		}
		for i, p := range pts {
			if inSky[i] {
				for j, q := range pts {
					if i != j && point.Dominates(q, p) {
						return false // skyline member dominated
					}
				}
			} else {
				found := false
				for _, s := range sfs {
					if point.Dominates(pts[s], p) {
						found = true
						break
					}
				}
				if !found {
					return false // non-member not dominated by skyline
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDominanceSets(t *testing.T) {
	pts := [][]float64{
		{2, 2}, // dominates 1,2,3
		{1, 1}, // dominates 3
		{2, 0},
		{0, 0},
	}
	sets, err := DominanceSets(nil, pts, []int{0, 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]int{{1, 2, 3}, {3}} {
		w := bitset.New(len(pts))
		for _, j := range want {
			w.Add(j)
		}
		if sets[i].AndNotCount(w) != 0 || w.AndNotCount(sets[i]) != 0 {
			t.Fatalf("point %d must dominate exactly %v", i, want)
		}
	}
}

func TestSkyline2DSorted(t *testing.T) {
	pts := [][]float64{
		{0.2, 0.9},
		{0.9, 0.2},
		{0.5, 0.5},
		{0.1, 0.1}, // dominated
		{0.9, 0.2}, // duplicate of index 1
	}
	idx, err := Skyline2DSorted(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("got %v", idx)
	}
	// Sorted by descending first attribute.
	if pts[idx[0]][0] != 0.9 || pts[idx[1]][0] != 0.5 || pts[idx[2]][0] != 0.2 {
		t.Fatalf("order wrong: %v", idx)
	}
	// Second attribute strictly ascending.
	for i := 1; i < len(idx); i++ {
		if pts[idx[i]][1] <= pts[idx[i-1]][1] {
			t.Fatalf("second attribute not strictly ascending: %v", idx)
		}
	}
	if _, err := Skyline2DSorted([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("3-d input must error")
	}
}

// Property: Skyline2DSorted output has strictly decreasing x and strictly
// increasing y.
func TestSkyline2DSortedMonotoneProperty(t *testing.T) {
	g := rng.New(99)
	f := func(nRaw uint8) bool {
		n := int(nRaw%30) + 1
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(g.IntN(8)), float64(g.IntN(8))}
		}
		idx, err := Skyline2DSorted(pts)
		if err != nil || len(idx) == 0 {
			return false
		}
		for i := 1; i < len(idx); i++ {
			a, b := pts[idx[i-1]], pts[idx[i]]
			if !(b[0] < a[0] && b[1] > a[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
