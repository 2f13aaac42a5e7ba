package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"unsafe"

	"github.com/regretlab/fam/internal/rng"
)

// checkTrajectoriesAgree records every strategy at Parallelism 1 and 4
// under mode m and requires At(in, k) to return GreedyShrink's set and
// every ShrinkStats field at every k.
func checkTrajectoriesAgree(t *testing.T, ti tieInput, m tieMode) {
	t.Helper()
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		in := ti.instance(t, m, workers)
		for _, s := range allStrategies() {
			tr, err := ShrinkTrajectory(ctx, in, s)
			if err != nil {
				t.Fatalf("%s %v workers=%d: record: %v", m.name, s, workers, err)
			}
			for k := 1; k <= in.NumPoints(); k++ {
				label := fmt.Sprintf("%s %v workers=%d k=%d", m.name, s, workers, k)
				checkAtMatches(t, label, tr, in, k, s)
			}
		}
	}
}

// checkAtMatches compares one trajectory answer with a fresh run.
func checkAtMatches(t *testing.T, label string, tr *Trajectory, in *Instance, k int, s Strategy) {
	t.Helper()
	want, wantStats, err := GreedyShrink(context.Background(), in, k, s)
	if err != nil {
		t.Fatalf("%s: shrink: %v", label, err)
	}
	got, gotStats, err := tr.At(in, k)
	if err != nil {
		t.Fatalf("%s: At: %v", label, err)
	}
	sameSet(t, label, got, want)
	if gotStats != wantStats {
		t.Fatalf("%s: stats %+v, want %+v", label, gotStats, wantStats)
	}
}

func TestTrajectoryMatchesGreedyShrink(t *testing.T) {
	for _, workers := range []int{1, 3} {
		in := workerInstance(t, 7, 60, 4, 300, workers)
		for _, s := range []Strategy{StrategyDelta, StrategyLazy} {
			tr, err := ShrinkTrajectory(context.Background(), in, s)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= in.NumPoints(); k++ {
				checkAtMatches(t, fmt.Sprintf("%v workers=%d k=%d", s, workers, k), tr, in, k, s)
			}
		}
	}
	for seed := uint64(0); seed < 4; seed++ {
		g := rng.New(seed + 40)
		ti := randomTieInput(g, g.IntN(20)+2, g.IntN(30)+1, g.IntN(3)+1)
		for _, m := range tieModes {
			checkTrajectoriesAgree(t, ti, m)
		}
	}
}

// A trajectory answers a WithExecution clone of its instance (the
// Engine binds one per query) exactly as it answers the instance.
func TestTrajectoryServesClones(t *testing.T) {
	in := workerInstance(t, 3, 40, 3, 200, 2)
	tr, err := ShrinkTrajectory(context.Background(), in, StrategyDelta)
	if err != nil {
		t.Fatal(err)
	}
	clone := in.WithExecution(2, nil)
	for _, k := range []int{1, 5, 40} {
		checkAtMatches(t, fmt.Sprintf("clone k=%d", k), tr, clone, k, StrategyDelta)
	}
}

func TestTrajectoryErrors(t *testing.T) {
	ctx := context.Background()
	in := randomInstance(t, 6, 2, 20, 1)
	if _, err := ShrinkTrajectory(ctx, nil, StrategyDelta); err == nil {
		t.Fatal("nil instance must error")
	}
	if _, err := ShrinkTrajectory(ctx, in, Strategy(42)); err == nil {
		t.Fatal("unknown strategy must error")
	}
	tr, err := ShrinkTrajectory(ctx, in, StrategyLazy)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 7, -1} {
		if _, _, err := tr.At(in, k); !errors.Is(err, ErrBadK) {
			t.Fatalf("k=%d: err %v, want ErrBadK", k, err)
		}
	}
	if _, _, err := tr.At(randomInstance(t, 7, 2, 20, 1), 3); err == nil {
		t.Fatal("At on an instance of another size must error")
	}
	if _, _, err := tr.At(nil, 3); err == nil {
		t.Fatal("At on a nil instance must error")
	}
}

// A canceled recording returns the context's error and no trajectory.
func TestShrinkTrajectoryCanceled(t *testing.T) {
	in := workerInstance(t, 5, 50, 3, 100, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range allStrategies() {
		tr, err := ShrinkTrajectory(ctx, in, s)
		if !errors.Is(err, context.Canceled) || tr != nil {
			t.Fatalf("%v: (%v, %v), want (nil, context.Canceled)", s, tr, err)
		}
	}
}

// The footprint counts the header and both backing arrays exactly:
// 4 bytes per removal and 40 per iteration's counters on 64-bit hosts.
func TestTrajectoryMemoryFootprint(t *testing.T) {
	if unsafe.Sizeof(0) != 8 {
		t.Skip("the pinned sizes are those of a 64-bit host")
	}
	in := randomInstance(t, 30, 2, 40, 4)
	tr, err := ShrinkTrajectory(context.Background(), in, StrategyDelta)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.removed) != 29 || len(tr.steps) != 30 {
		t.Fatalf("recorded %d removals and %d steps, want 29 and 30", len(tr.removed), len(tr.steps))
	}
	if got, want := tr.MemoryFootprint(), int64(8+8+24+24+29*4+30*40); got != want {
		t.Fatalf("footprint %d, want %d", got, want)
	}
}
