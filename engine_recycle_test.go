package fam

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/kernel"
)

// recycleData is the anticorrelated set the recycling tests query: its
// coreset size varies by a few percent from seed to seed, as
// engine-fresh-seeds' does.
func recycleData(t testing.TB) (*Dataset, Distribution) {
	t.Helper()
	ds, err := Synthetic(1000, 4, Anticorrelated, 11)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	return ds, dist
}

// recycleQuery is a fresh-seed coreset selection against "ac".
func recycleQuery(seed uint64) Query {
	return Query{Dataset: "ac", K: 5, Seed: seed, SampleSize: 1000, Coreset: true}
}

// recycleEngine registers "ac" on an Engine with the given prep budget.
func recycleEngine(t testing.TB, prepBytes int64) *Engine {
	t.Helper()
	ds, dist := recycleData(t)
	e := NewEngine(EngineConfig{PrepCacheBytes: prepBytes})
	t.Cleanup(e.Close)
	if err := e.Register("ac", ds, dist); err != nil {
		t.Fatal(err)
	}
	return e
}

// oneShotOf turns an Engine query against "ac" into the one-shot query
// it must answer as.
func oneShotOf(t testing.TB, q Query) Query {
	ds, dist := recycleData(t)
	q.Dataset, q.Data, q.Dist = "", ds, dist
	return q
}

func mustEngineSelect(t testing.TB, e *Engine, q Query, exec Exec) (*Result, *Telemetry) {
	t.Helper()
	res, tel, err := e.Select(context.Background(), q, exec)
	if err != nil {
		t.Fatal(err)
	}
	return res, tel
}

// matrixReleased reports whether in's utility matrix has been released:
// reading a released matrix panics.
func matrixReleased(in *core.Instance) (released bool) {
	defer func() { released = recover() != nil }()
	in.Utility(0, 0)
	return false
}

// TestEngineRecyclesEvictedMatrices: fresh-seed coreset selections under
// a prep budget of about two requests' artifacts evict an instance per
// request, and the next build reuses its matrix array, so once evictions
// start a request allocates at least half a matrix less than the same
// request on an Engine that never evicts. Not parallel: TotalAlloc
// counts every goroutine.
func TestEngineRecyclesEvictedMatrices(t *testing.T) {
	// One request's artifacts: the prep bytes its seed adds after the
	// first request has built the dataset-wide skyline.
	probe := recycleEngine(t, -1)
	mustEngineSelect(t, probe, recycleQuery(1000), Exec{})
	before := probe.Stats().PrepCache.Bytes
	mustEngineSelect(t, probe, recycleQuery(1001), Exec{})
	perSeed := probe.Stats().PrepCache.Bytes - before
	sky := before - perSeed

	const warm, measured = 8, 24
	perRequest := func(e *Engine) (alloc, matrix uint64) {
		for s := uint64(0); s < warm; s++ {
			mustEngineSelect(t, e, recycleQuery(s), Exec{Parallelism: 1})
		}
		alloc = allocatedBy(func() {
			for s := uint64(warm); s < warm+measured; s++ {
				res, _ := mustEngineSelect(t, e, recycleQuery(s), Exec{Parallelism: 1})
				matrix += uint64(1000*res.CoresetSize) * 8
			}
		})
		return alloc / measured, matrix / measured
	}
	kept, matrix := perRequest(recycleEngine(t, -1))
	e := recycleEngine(t, sky+2*perSeed+perSeed/2)
	recycled, _ := perRequest(e)
	if s := e.Stats().PrepCache; s.Evictions < measured {
		t.Fatalf("%d prep evictions over %d requests: the budget does not evict each request's artifacts", s.Evictions, warm+measured)
	}
	t.Logf("per request: %d bytes allocated with evictions, %d without, matrix %d", recycled, kept, matrix)
	if kept < recycled+matrix/2 {
		t.Fatalf("a request allocated %d bytes with evictions and %d without: recycling saved under half the %d-byte matrix", recycled, kept, matrix)
	}
}

// TestEngineHeldInstanceSurvivesEviction: a request holding an instance
// reads the same Utility bits at every entry while other queries evict
// the instance and build new ones, and the matrix is released only when
// the request drops its hold.
func TestEngineHeldInstanceSurvivesEviction(t *testing.T) {
	e := recycleEngine(t, 1) // every store evicts every other entry
	q := recycleQuery(1)
	prep := prepareHeld(t, e, q)
	in := prep.in
	want := make([]uint64, in.NumFuncs()*in.NumPoints())
	for u := 0; u < in.NumFuncs(); u++ {
		for j := 0; j < in.NumPoints(); j++ {
			want[u*in.NumPoints()+j] = math.Float64bits(in.Utility(u, j))
		}
	}

	var wg sync.WaitGroup
	defer wg.Wait() // a failed check still outlives the goroutine
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := uint64(2); s < 10; s++ {
			if _, _, err := e.Select(context.Background(), recycleQuery(s), Exec{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(when string) {
		for u := 0; u < in.NumFuncs(); u++ {
			for j := 0; j < in.NumPoints(); j++ {
				if got := math.Float64bits(in.Utility(u, j)); got != want[u*in.NumPoints()+j] {
					t.Fatalf("%s: Utility(%d, %d) = %x, want %x", when, u, j, got, want[u*in.NumPoints()+j])
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		check("while other queries evict")
	}
	wg.Wait()
	check("after the evictions")

	if _, ok := e.prep.Get(prep.key); ok {
		t.Fatal("the held instance was never evicted")
	}
	if n := prep.hold.n.Load(); n != 1 || matrixReleased(in) {
		t.Fatalf("evicted instance held by one request: %d holds, released %v; want 1 hold and the matrix kept", n, matrixReleased(in))
	}
	prep.done()
	if !matrixReleased(in) {
		t.Fatal("dropping the last hold did not release the matrix")
	}
	if prep.hold.pin() {
		t.Fatal("a released instance took a new hold")
	}
}

// nanUtility scores every point NaN.
type nanUtility struct{}

func (nanUtility) Value(int, []float64) float64 { return math.NaN() }

// TestEngineNaNSlotAnswersAsOneShot parks a NaN-filled array 1/32 wider
// than the query's matrix in the Engine's slot: the build reuses it, the
// cache counts its whole capacity, and the answer is bit-equal to
// one-shot Select's, in both storage modes and at Parallelism 1 and 4.
func TestEngineNaNSlotAnswersAsOneShot(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("f32=%v/par=%d", f32, p), func(t *testing.T) {
				q := recycleQuery(3)
				q.Float32 = f32
				exec := Exec{Parallelism: p}
				want, wantTel := mustSelect(t, context.Background(), oneShotOf(t, q), exec)

				e := recycleEngine(t, 0)
				N, n := q.SampleSize, want.CoresetSize
				cols := n + n/32
				m := e.slot.New(N, cols, f32)
				ps := kernel.NewPoints(make([][]float64, cols), nil)
				for u := 0; u < N; u++ {
					m.FillRow(u, nanUtility{}, ps)
				}
				m.Release()

				got, gotTel := mustEngineSelect(t, e, q, exec)
				assertResultEqual(t, "Engine on a NaN slot", got, semanticTel(gotTel), want, semanticTel(wantTel))
				elem := int64(8)
				if f32 {
					elem = 4
				}
				in := preparedFor(t, e, q).in
				if matrix := in.MemoryFootprint() - (2*24 + int64(N)*12); matrix != 24+int64(N*cols)*elem {
					t.Fatalf("instance matrix counted as %d bytes, want the parked array's %d", matrix, 24+int64(N*cols)*elem)
				}
			})
		}
	}
}

// TestEngineRecycleConcurrent runs fresh and repeated seeds, selections
// of several K and algorithms, evaluations and batches from four
// goroutines against an Engine whose 1-byte prep budget evicts every
// instance as the next artifact is stored, so instances are released
// and their arrays refilled while other requests run. Every answer must
// equal one-shot Select's.
func TestEngineRecycleConcurrent(t *testing.T) {
	e := recycleEngine(t, 1)
	ctx := context.Background()
	type job struct {
		q    Query
		want *Result
	}
	var jobs []job
	for i, seed := range []uint64{1, 2, 1, 3, 2, 1, 4, 5, 1, 6, 2, 7} {
		q := recycleQuery(seed)
		q.K = 3 + i%4
		if i%3 == 1 {
			q.Algorithm = GreedyAdd
		}
		want, _ := mustSelect(t, ctx, oneShotOf(t, q), Exec{Parallelism: 1})
		jobs = append(jobs, job{q, want})
	}

	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(g*rounds+r)%len(jobs)]
				label := fmt.Sprintf("goroutine %d round %d", g, r)
				exec := Exec{Parallelism: 1 + g%2}
				switch r % 3 {
				case 0:
					res, _, err := e.Select(ctx, j.q, exec)
					if err != nil {
						t.Error(label, err)
						return
					}
					assertSameAnswer(t, label+" Select", res, j.want)
				case 1:
					eq := j.q
					eq.ExplicitSet, eq.Coreset = j.want.Indices, false
					m, err := e.Evaluate(ctx, eq, exec)
					if err != nil {
						t.Error(label, err)
						return
					}
					if m.ARR != j.want.Metrics.ARR || m.MaxRR != j.want.Metrics.MaxRR {
						t.Errorf("%s Evaluate: metrics %+v, want %+v", label, m, j.want.Metrics)
					}
				case 2:
					other := jobs[(g*rounds+r+5)%len(jobs)]
					out, err := e.SelectBatch(ctx, []Query{j.q, other.q}, exec)
					if err != nil {
						t.Error(label, err)
						return
					}
					for i, want := range []*Result{j.want, other.want} {
						if out[i].Err != nil {
							t.Error(label, out[i].Err)
							return
						}
						assertSameAnswer(t, fmt.Sprintf("%s batch member %d", label, i), out[i].Result, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// assertSameAnswer compares the semantic fields of two Results without
// failing the test from outside its goroutine.
func assertSameAnswer(t testing.TB, label string, got, want *Result) {
	t.Helper()
	if fmt.Sprint(got.Indices) != fmt.Sprint(want.Indices) || got.Metrics.ARR != want.Metrics.ARR ||
		got.CoresetSize != want.CoresetSize || got.SkylineSize != want.SkylineSize {
		t.Errorf("%s: indices %v ARR %v (coreset %d of %d), want %v ARR %v (coreset %d of %d)", label,
			got.Indices, got.Metrics.ARR, got.CoresetSize, got.SkylineSize,
			want.Indices, want.Metrics.ARR, want.CoresetSize, want.SkylineSize)
	}
}
