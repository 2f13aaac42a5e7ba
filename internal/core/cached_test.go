package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/regretlab/fam/internal/rng"
)

// checkCachedMatchesUncached runs every strategy on a materialized
// instance, whose first pass reads whole contiguous rows through the
// kernel's row reductions, and on the same instance built uncached,
// whose scans call Utility per entry: the recorded trajectories, and the
// set and every ShrinkStats field at each listed k, must be identical.
func checkCachedMatchesUncached(t *testing.T, ti tieInput, m tieMode, workers int, ks []int) {
	t.Helper()
	ctx := context.Background()
	cached := ti.instance(t, m, workers)
	um := m
	um.uncached = true
	uncached := ti.instance(t, um, workers)
	if !cached.cacheUsed || uncached.cacheUsed {
		t.Fatalf("%s: cached=%t uncached=%t, want one of each", m.name, cached.cacheUsed, uncached.cacheUsed)
	}
	for _, s := range allStrategies() {
		label := fmt.Sprintf("%s %v workers=%d n=%d", m.name, s, workers, cached.NumPoints())
		trC, err := ShrinkTrajectory(ctx, cached, s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		trU, err := ShrinkTrajectory(ctx, uncached, s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(trC, trU) {
			t.Fatalf("%s: cached trajectory %+v, uncached %+v", label, trC, trU)
		}
		for _, k := range ks {
			setC, stC, err := GreedyShrink(ctx, cached, k, s)
			if err != nil {
				t.Fatalf("%s k=%d: %v", label, k, err)
			}
			setU, stU, err := GreedyShrink(ctx, uncached, k, s)
			if err != nil {
				t.Fatalf("%s k=%d: %v", label, k, err)
			}
			sameSet(t, fmt.Sprintf("%s k=%d cached vs uncached", label, k), setC, setU)
			if stC != stU {
				t.Fatalf("%s k=%d: cached stats %+v, uncached %+v", label, k, stC, stU)
			}
		}
	}
}

// TestCachedMatchesUncached compares the cached and uncached runs of
// delta, lazy and naive in float64 and float32, uniform and weighted, on
// tie-heavy instances (duplicate points and users on a coarse grid, so
// rows hold many equal maxima) with enough points to fill the vector
// kernels' groups and leave scalar tails.
func TestCachedMatchesUncached(t *testing.T) {
	modes := []tieMode{
		{name: "float64"},
		{name: "float32", float32: true},
		{name: "weighted", weighted: true},
		{name: "float32-weighted", float32: true, weighted: true},
	}
	for seed := uint64(0); seed < 6; seed++ {
		g := rng.New(seed + 3000)
		n, N, d := []int{1, 2, 17, 40, 67, 130}[seed], g.IntN(30)+1, g.IntN(3)+1
		ti := randomTieInput(g, n, N, d)
		for _, m := range modes {
			for _, workers := range []int{1, 3} {
				checkCachedMatchesUncached(t, ti, m, workers, []int{1, (n + 1) / 2, max(n-1, 1)})
			}
		}
	}
}
