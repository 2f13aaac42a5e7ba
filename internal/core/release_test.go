package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/regretlab/fam/internal/kernel"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/utility"
)

// nanFunc scores every point NaN: the dirtiest slab a released matrix
// could hand to the next build.
type nanFunc struct{}

func (nanFunc) Value(int, []float64) float64 { return math.NaN() }

// releaseDirty releases an N×n matrix holding NaN in every entry. A spare
// of that shape already held is taken first, so the dirty one is the
// spare afterwards.
func releaseDirty(N, n int, f32 bool) {
	m := kernel.New(N, n, f32)
	ps := kernel.NewPoints(make([][]float64, n), nil)
	for u := 0; u < N; u++ {
		m.FillRow(u, nanFunc{}, ps)
	}
	m.Release()
}

// drainSpare leaves no spare of the N×n shape: the next build allocates.
func drainSpare(N, n int, f32 bool) { kernel.New(N, n, f32) }

// allocated returns the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// releaseFixture is one kind of instance input: the points, the funcs and
// the weights (nil for uniform).
type releaseFixture struct {
	name    string
	pts     [][]float64
	funcs   []utility.Func
	weights []float64
}

func releaseFixtures(t *testing.T, n, d, N int) []releaseFixture {
	t.Helper()
	g := rng.New(41)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		g.UniformVec(pts[i])
	}
	lin, err := utility.NewUniformSimplexLinear(d)
	if err != nil {
		t.Fatal(err)
	}
	ces, err := utility.NewCESUniform(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	linFuncs, err := sampling.Sample(lin, N, g)
	if err != nil {
		t.Fatal(err)
	}
	cesFuncs, err := sampling.Sample(ces, N, g)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, N)
	for u := range weights {
		weights[u] = g.Float64()
	}
	return []releaseFixture{
		{"linear", pts, linFuncs, nil},
		{"ces", pts, cesFuncs, nil},
		{"weighted", pts, linFuncs, weights},
	}
}

// TestReleasedSlabIsOverwritten builds each fixture on an all-NaN released
// slab and on a fresh one, in both storage modes: every utility, best
// point, footprint and solver answer must be bit-equal.
func TestReleasedSlabIsOverwritten(t *testing.T) {
	ctx := context.Background()
	const n, d, N, k = 120, 3, 90, 6
	for _, f32 := range []bool{false, true} {
		elem := uint64(8)
		if f32 {
			elem = 4
		}
		for _, fx := range releaseFixtures(t, n, d, N) {
			opts := Options{Float32: f32, Weights: fx.weights}
			build := func() *Instance {
				in, err := NewInstance(fx.pts, fx.funcs, opts)
				if err != nil {
					t.Fatal(err)
				}
				return in
			}
			drainSpare(N, n, f32)
			want := build()
			releaseDirty(N, n, f32)
			var got *Instance
			if b := allocated(func() { got = build() }); b >= N*n*elem {
				t.Fatalf("%s f32=%v: the build allocated %d bytes, so it did not reuse the %d-byte spare", fx.name, f32, b, N*n*elem)
			}
			for u := 0; u < N; u++ {
				for j := 0; j < n; j++ {
					if a, b := got.Utility(u, j), want.Utility(u, j); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s f32=%v: Utility(%d,%d) = %v on the reused slab, %v fresh", fx.name, f32, u, j, a, b)
					}
				}
				gi, gs := got.BestInDatabase(u)
				wi, ws := want.BestInDatabase(u)
				if gi != wi || math.Float64bits(gs) != math.Float64bits(ws) {
					t.Fatalf("%s f32=%v: BestInDatabase(%d) = (%d, %v), want (%d, %v)", fx.name, f32, u, gi, gs, wi, ws)
				}
			}
			if got.MemoryFootprint() != want.MemoryFootprint() {
				t.Fatalf("%s f32=%v: footprint %d, want %d", fx.name, f32, got.MemoryFootprint(), want.MemoryFootprint())
			}
			for _, s := range []Strategy{StrategyDelta, StrategyLazy} {
				gs, gst, err := GreedyShrink(ctx, got, k, s)
				if err != nil {
					t.Fatal(err)
				}
				ws, wst, err := GreedyShrink(ctx, want, k, s)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gs, ws) || gst != wst {
					t.Fatalf("%s f32=%v %v: GreedyShrink %v %+v, want %v %+v", fx.name, f32, s, gs, gst, ws, wst)
				}
			}
			ga, gst, err := GreedyAdd(ctx, got, k)
			if err != nil {
				t.Fatal(err)
			}
			wa, wst, err := GreedyAdd(ctx, want, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ga, wa) || gst != wst {
				t.Fatalf("%s f32=%v: GreedyAdd %v %+v, want %v %+v", fx.name, f32, ga, gst, wa, wst)
			}
			got.Release()
			want.Release()
		}
	}
}

// TestFailedBuildKeepsNoSlab: a build that takes the spare and then fails
// with a *UtilityError drops the half-filled slab instead of releasing it,
// so the next build allocates and is still correct.
func TestFailedBuildKeepsNoSlab(t *testing.T) {
	const n, d, N = 80, 3, 50
	fx := releaseFixtures(t, n, d, N)[0]
	drainSpare(N, n, false)
	want, err := NewInstance(fx.pts, fx.funcs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	releaseDirty(N, n, false)
	bad := append([]utility.Func(nil), fx.funcs...)
	bad[N/2] = utility.Linear{W: []float64{-1, 0, 0}}
	var uerr *UtilityError
	if _, err := NewInstance(fx.pts, bad, Options{Parallelism: 1}); !errors.As(err, &uerr) || uerr.Func != N/2 {
		t.Fatalf("err = %v, want a *UtilityError for function %d", err, N/2)
	}
	var got *Instance
	if b := allocated(func() {
		if got, err = NewInstance(fx.pts, fx.funcs, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}); b < N*n*8 {
		t.Fatalf("the build after a failed one allocated %d bytes, under the %d-byte matrix: the failed build left its slab", b, N*n*8)
	}
	for u := 0; u < N; u++ {
		for j := 0; j < n; j++ {
			if a, b := got.Utility(u, j), want.Utility(u, j); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("Utility(%d,%d) = %v, want %v", u, j, a, b)
			}
		}
	}
}
