package coreset

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/utility"
)

func synthetic(n, d, N int, seed uint64) ([][]float64, []utility.Func) {
	r := rng.New(seed)
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, d)
		for j := range points[i] {
			points[i][j] = r.Float64()
		}
	}
	funcs := make([]utility.Func, N)
	for u := range funcs {
		w := make([]float64, d)
		for j := range w {
			w[j] = r.Float64()
		}
		funcs[u] = utility.Linear{W: w}
	}
	return points, funcs
}

func TestArgmaxAlwaysSurvives(t *testing.T) {
	points, funcs := synthetic(120, 4, 40, 7)
	got, err := Filter(context.Background(), points, nil, funcs, Options{Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	surv := make(map[int]bool, len(got))
	for _, c := range got {
		surv[c] = true
	}
	for u, f := range funcs {
		best, bi := -1.0, -1
		for p := range points {
			if v := f.Value(p, points[p]); v > best {
				best, bi = v, p
			}
		}
		if best > 0 && !surv[bi] {
			t.Fatalf("user %d argmax %d missing from coreset", u, bi)
		}
	}
	if len(got) == len(points) {
		t.Fatal("coreset pruned nothing on a 120-point instance; test is vacuous")
	}
}

func TestEpsZeroKeepsOnlyArgmaxes(t *testing.T) {
	points, funcs := synthetic(80, 3, 25, 11)
	got, err := Filter(context.Background(), points, nil, funcs, Options{Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]bool)
	for _, f := range funcs {
		best, bi := -1.0, -1
		for p := range points {
			if v := f.Value(p, points[p]); v > best {
				best, bi = v, p
			}
		}
		if best > 0 {
			want[bi] = true
		}
	}
	// With eps=0 the threshold is the max itself, so survivors are
	// exactly the points achieving some user's max (ties included; none
	// occur for continuous random weights).
	if len(got) != len(want) {
		t.Fatalf("eps=0: %d survivors, want %d argmaxes", len(got), len(want))
	}
	for _, c := range got {
		if !want[c] {
			t.Fatalf("eps=0: survivor %d is no user's argmax", c)
		}
	}
}

func TestMonotoneInEps(t *testing.T) {
	points, funcs := synthetic(150, 4, 30, 3)
	prev := -1
	for _, eps := range []float64{0, 0.01, 0.05, 0.2, 0.5} {
		got, err := Filter(context.Background(), points, nil, funcs, Options{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < prev {
			t.Fatalf("eps=%v: %d survivors, fewer than %d at smaller eps", eps, len(got), prev)
		}
		prev = len(got)
	}
}

func TestWorkerCountIndependent(t *testing.T) {
	points, funcs := synthetic(200, 5, 64, 19)
	base, err := Filter(context.Background(), points, nil, funcs, Options{Eps: 0.1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		got, err := Filter(context.Background(), points, nil, funcs, Options{Eps: 0.1, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: survivors diverge from serial run", workers)
		}
	}
}

func TestCandidateSubsetOriginalIndices(t *testing.T) {
	points, _ := synthetic(50, 2, 1, 5)
	// Table utilities key on original row indices; filtering a candidate
	// subset must evaluate at those indices, not positions.
	u := make([]float64, 50)
	u[17] = 1.0
	u[23] = 0.97
	u[4] = 0.5
	funcs := []utility.Func{utility.Table{U: u}}
	cand := []int{4, 17, 23, 31}
	got, err := Filter(context.Background(), points, cand, funcs, Options{Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{17, 23}; !reflect.DeepEqual(got, want) {
		t.Fatalf("subset filter = %v, want %v", got, want)
	}
}

func TestDegenerateUsersMarkNothing(t *testing.T) {
	points := [][]float64{{0, 0}, {0, 0}}
	funcs := []utility.Func{utility.Linear{W: []float64{1, 1}}}
	got, err := Filter(context.Background(), points, nil, funcs, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("degenerate-only instance should yield empty coreset, got %v", got)
	}
}

func TestBadEps(t *testing.T) {
	points, funcs := synthetic(10, 2, 3, 1)
	for _, eps := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := Filter(context.Background(), points, nil, funcs, Options{Eps: eps}); !errors.Is(err, ErrBadEps) {
			t.Fatalf("eps=%v: want ErrBadEps, got %v", eps, err)
		}
	}
}

func TestInvalidUtilitySurfaces(t *testing.T) {
	points := [][]float64{{1, 1}}
	funcs := []utility.Func{utility.Linear{W: []float64{-1, 0}}}
	if _, err := Filter(context.Background(), points, nil, funcs, Options{Eps: 0.1}); err == nil {
		t.Fatal("negative utility must be rejected")
	}
}

// refFilter is the filter written out entry by entry: every candidate
// some non-degenerate user values at or above (1−eps) of their best.
func refFilter(points [][]float64, cand []int, funcs []utility.Func, eps float64) []int {
	keep := make([]bool, len(cand))
	vals := make([]float64, len(cand))
	for _, f := range funcs {
		best := 0.0
		for i, c := range cand {
			vals[i] = f.Value(c, points[c])
			best = max(best, vals[i])
		}
		if best <= 0 {
			continue
		}
		thresh := (1 - eps) * best
		for i, v := range vals {
			if v >= thresh {
				keep[i] = true
			}
		}
	}
	out := []int{}
	for i, c := range cand {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}

// TestFilterMatchesReference compares Filter with refFilter around the
// 64-candidate word of the survivor bitset and at an engine-sized
// candidate set, at three tolerances and worker counts, over Linear
// users and Table users whose rows put entries exactly on the threshold
// (kept) and one ulp below it (dropped), plus a degenerate user.
func TestFilterMatchesReference(t *testing.T) {
	for _, m := range []int{1, 63, 64, 65, 2405} {
		points, linear := synthetic(m, 4, 24, uint64(m))
		cand := make([]int, m)
		for i := range cand {
			cand[i] = i
		}
		for _, eps := range []float64{0, 0.01, 0.5} {
			funcs := append([]utility.Func(nil), linear...)
			funcs = append(funcs, utility.Table{U: make([]float64, m)}) // degenerate
			r := rng.New(uint64(m) + 1)
			for u := 0; u < 8; u++ {
				row := make([]float64, m)
				for i := range row {
					row[i] = 0.5 * r.Float64()
				}
				top := 0.5 + r.Float64()
				thresh := (1 - eps) * top
				for k := 0; k < 3; k++ {
					row[r.IntN(m)] = thresh
					row[r.IntN(m)] = math.Nextafter(thresh, 0)
				}
				row[r.IntN(m)] = top // above every other entry
				funcs = append(funcs, utility.Table{U: row})
			}
			want := refFilter(points, cand, funcs, eps)
			for _, workers := range []int{1, 2, 4} {
				got, err := Filter(context.Background(), points, nil, funcs, Options{Eps: eps, Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("m=%d eps=%v workers=%d: Filter = %v, want %v", m, eps, workers, got, want)
				}
			}
		}
	}
}
