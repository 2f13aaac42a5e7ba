package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/utility"
)

// Parallel preprocessing must be bit-identical to serial.
func TestParallelPreprocessingDeterminism(t *testing.T) {
	g := rng.New(91)
	pts := make([][]float64, 120)
	for i := range pts {
		p := make([]float64, 4)
		g.UniformVec(p)
		pts[i] = p
	}
	dist, _ := utility.NewUniformSimplexLinear(4)
	funcs, _ := sampling.Sample(dist, 700, g)

	serial, err := NewInstance(pts, funcs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 0} {
		par, err := NewInstance(pts, funcs, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < serial.NumFuncs(); u++ {
			bs, ss := serial.BestInDatabase(u)
			bp, sp := par.BestInDatabase(u)
			if bs != bp || ss != sp {
				t.Fatalf("workers=%d user %d: (%d,%v) vs (%d,%v)", workers, u, bs, ss, bp, sp)
			}
		}
		set, _, err := GreedyShrink(context.Background(), par, 5, StrategyDelta)
		if err != nil {
			t.Fatal(err)
		}
		refSet, _, err := GreedyShrink(context.Background(), serial, 5, StrategyDelta)
		if err != nil {
			t.Fatal(err)
		}
		for i := range set {
			if set[i] != refSet[i] {
				t.Fatalf("workers=%d: selection differs", workers)
			}
		}
	}
}

// badFunc returns an invalid utility for one (user-local) point.
type badFunc struct {
	bad float64
}

func (b badFunc) Value(idx int, _ []float64) float64 {
	if idx == 1 {
		return b.bad
	}
	return 0.5
}

func TestInvalidUtilityRejected(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		funcs := []utility.Func{badFunc{bad: bad}}
		_, err := NewInstance(pts, funcs, Options{})
		var ue *UtilityError
		if !errors.As(err, &ue) || ue.Func != 0 || ue.Point != 1 || math.Float64bits(ue.Value) != math.Float64bits(bad) {
			t.Fatalf("utility value %v: err = %#v, want a UtilityError at function 0, point 1", bad, err)
		}
		// Parallel path propagates the same error.
		if _, err := NewInstance(pts, funcs, Options{Parallelism: 4}); err == nil {
			t.Fatalf("utility value %v must be rejected in parallel mode", bad)
		}
	}
}

// More workers than users must not break partitioning.
func TestParallelMoreWorkersThanUsers(t *testing.T) {
	pts := [][]float64{{0.2, 0.8}, {0.9, 0.1}}
	funcs := []utility.Func{
		utility.Linear{W: []float64{1, 0}},
		utility.Linear{W: []float64{0, 1}},
	}
	in, err := NewInstance(pts, funcs, Options{Parallelism: 64})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := in.BestInDatabase(0); b != 1 {
		t.Fatalf("user 0 best = %d", b)
	}
	if b, _ := in.BestInDatabase(1); b != 0 {
		t.Fatalf("user 1 best = %d", b)
	}
}
