package fam

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/regretlab/fam/internal/core"
)

var shrinkAlgorithms = []Algorithm{GreedyShrink, GreedyShrinkLazy, GreedyShrinkNaive}

// sweepKs is the K-sweep of the trajectory tests: the first K marks the
// key, the second records, later ones are served; n moves to the
// full-dataset instance, where K = n neither marks nor records, and the
// repeat of 2 hits the result cache.
func sweepKs(n int) []int { return []int{2, 3, 4, 1, n, 2} }

// TestEngineTrajectoryKSweep pins the served-answer contract: every K of
// a sweep equals a one-shot Select at that K, Telemetry.Stats included,
// and the K after the recording is read from the trajectory.
func TestEngineTrajectoryKSweep(t *testing.T) {
	fixtures := engineFixtures(t)
	e := newTestEngine(t, fixtures)
	ctx := context.Background()
	exec := Exec{Parallelism: 2}
	for _, f := range fixtures {
		for _, algo := range shrinkAlgorithms {
			for i, k := range sweepKs(f.ds.N()) {
				q := Query{Dataset: f.name, K: k, Algorithm: algo, Seed: 9, SampleSize: 120}
				label := fmt.Sprintf("%s/%s/k=%d #%d", f.name, algo, k, i)
				one := q
				one.Dataset, one.Data, one.Dist = "", f.ds, f.dist
				want, wantTel, err := Select(ctx, one, exec)
				if err != nil {
					t.Fatalf("%s one-shot: %v", label, err)
				}
				got, gotTel, err := e.Select(ctx, q, exec)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertResultEqual(t, label, got, gotTel, want, wantTel)
				if wantTel.FromTrajectory {
					t.Fatalf("%s: one-shot Select reported a trajectory answer", label)
				}
				if served := i == 1 || i == 2 || i == 3; gotTel.FromTrajectory != served && !got.Cached {
					t.Fatalf("%s: FromTrajectory %t, want %t", label, gotTel.FromTrajectory, served)
				}
			}
		}
	}
	s := e.Stats().TrajectoryCache
	// Per (dataset, algorithm): K=2 is the first sighting, K=3 records,
	// K=4 and K=1 hit, K=n runs to K, the second K=2 never reaches the
	// solver.
	runs := uint64(len(fixtures) * len(shrinkAlgorithms))
	if s.Rejected != runs || s.Misses != runs || s.Hits != 2*runs || s.Errors != 0 {
		t.Fatalf("trajectory cache %+v, want %d rejected, %d misses, %d hits", s, runs, runs, 2*runs)
	}
	// One trajectory per run.
	if s.Entries != int(runs) || s.Bytes <= 0 {
		t.Fatalf("trajectory cache holds %d entries in %d bytes, want %d", s.Entries, s.Bytes, runs)
	}
}

// TestEngineTrajectoryLargeKNeverRecords: a K above about n/2 would make
// a recording cost up to n-1 iterations where the run to K makes n-K, so
// GreedyShrinkNaive queries there neither mark nor record; once a small
// K has recorded, a large K is read from the trajectory.
func TestEngineTrajectoryLargeKNeverRecords(t *testing.T) {
	fixtures := engineFixtures(t)
	hotels := fixtures[0]
	e := newTestEngine(t, fixtures)
	ctx := context.Background()
	q := Query{Dataset: "hotels", K: 2, Algorithm: GreedyShrinkNaive, Seed: 8, SampleSize: 100}
	n := instancePoints(t, e, q)
	if n < 8 {
		t.Fatalf("hotels instance has %d points, too few for the test", n)
	}
	check := func(k int, served bool) {
		t.Helper()
		q.K = k
		one := q
		one.Dataset, one.Data, one.Dist = "", hotels.ds, hotels.dist
		want, wantTel, err := Select(ctx, one, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotTel, err := e.Select(ctx, q, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		assertResultEqual(t, fmt.Sprintf("k=%d", k), got, gotTel, want, wantTel)
		if gotTel.FromTrajectory != served {
			t.Fatalf("k=%d: FromTrajectory %t, want %t", k, gotTel.FromTrajectory, served)
		}
	}
	// K = n - n/2 is the largest K whose run makes at least (n-1)/2 of
	// a recording's iterations.
	for _, k := range []int{n - 1, n - 2, n - n/2 + 1} {
		check(k, false)
	}
	if s := e.Stats().TrajectoryCache; s.Rejected != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("large K marked or recorded: %+v", s)
	}
	check(2, false)    // marks
	check(n-n/2, true) // records
	check(n-3, true)   // read without recording
	if s := e.Stats().TrajectoryCache; s.Rejected != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("trajectory cache %+v, want 1 first sighting, 1 recording, 1 hit", s)
	}
}

// instancePoints returns the number of points of q's built instance.
func instancePoints(t *testing.T, e *Engine, q Query) int {
	t.Helper()
	return preparedFor(t, e, q).in.NumPoints()
}

// TestEngineTrajectoryKeyedByWorkers: the worker bound moves the
// dispatch counters in Telemetry.Stats, so a trajectory recorded at one
// bound never answers another.
func TestEngineTrajectoryKeyedByWorkers(t *testing.T) {
	fixtures := engineFixtures(t)
	e := newTestEngine(t, fixtures)
	ctx := context.Background()
	hotels := fixtures[0]
	for par, ks := range map[int][]int{1: {2, 3, 5}, 3: {4, 6, 7}} {
		for _, k := range ks {
			q := Query{Dataset: "hotels", K: k, Seed: 4, SampleSize: 100}
			one := q
			one.Dataset, one.Data, one.Dist = "", hotels.ds, hotels.dist
			want, wantTel, err := Select(ctx, one, Exec{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got, gotTel, err := e.Select(ctx, q, Exec{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			assertResultEqual(t, fmt.Sprintf("par=%d k=%d", par, k), got, gotTel, want, wantTel)
		}
	}
	// Each bound's first K is a first sighting of its own key.
	if s := e.Stats().TrajectoryCache; s.Rejected != 2 || s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("trajectory cache %+v, want a marker, a recording and a hit per bound", s)
	}
}

// TestEngineTrajectoryConcurrentSweeps races K-sweeps of one instance
// from several goroutines (the CI race step runs it ten times): every
// answer must equal the one-shot Select, whichever goroutine recorded.
func TestEngineTrajectoryConcurrentSweeps(t *testing.T) {
	fixtures := engineFixtures(t)
	hotels := fixtures[0]
	ctx := context.Background()
	const kmax = 10
	type want struct {
		res *Result
		tel *Telemetry
	}
	wants := map[Algorithm][]want{}
	for _, algo := range []Algorithm{GreedyShrink, GreedyShrinkLazy} {
		wants[algo] = make([]want, kmax+1)
		for k := 1; k <= kmax; k++ {
			res, tel, err := Select(ctx, Query{Data: hotels.ds, Dist: hotels.dist, K: k, Algorithm: algo, Seed: 5, SampleSize: 100}, Exec{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			wants[algo][k] = want{res, tel}
		}
	}
	e := newTestEngine(t, fixtures)
	const goroutines = 6
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < kmax; i++ {
				k := 1 + (i*(g+3))%kmax // a different K order per goroutine
				algo := []Algorithm{GreedyShrink, GreedyShrinkLazy}[(g+i)%2]
				got, tel, err := e.Select(ctx, Query{Dataset: "hotels", K: k, Algorithm: algo, Seed: 5, SampleSize: 100}, Exec{Parallelism: 2})
				if err != nil {
					t.Errorf("g%d k=%d: %v", g, k, err)
					return
				}
				w := wants[algo][k]
				assertResultEqual(t, fmt.Sprintf("g%d %s k=%d", g, algo, k), got, tel, w.res, w.tel)
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	if s := e.Stats().TrajectoryCache; s.Misses > 2 || s.Errors != 0 {
		t.Fatalf("trajectory cache %+v: at most one recording per strategy", s)
	}
}

// TestEngineTrajectoryCanceledRecording cancels the recording run of a
// second sighting: it stores nothing, the query fails with the context
// error, and the next query records and answers correctly.
func TestEngineTrajectoryCanceledRecording(t *testing.T) {
	fixtures := engineFixtures(t)
	hotels := fixtures[0]
	e := newTestEngine(t, fixtures)
	ctx := context.Background()
	q := Query{Dataset: "hotels", K: 2, Seed: 6, SampleSize: 100}
	if _, _, err := e.Select(ctx, q, Exec{}); err != nil {
		t.Fatal(err)
	}
	prep := preparedFor(t, e, q)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := e.shrink(canceled, prep, 3, core.StrategyDelta); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled recording: err %v, want context.Canceled", err)
	}
	if s := e.Stats().TrajectoryCache; s.Misses != 1 || s.Errors != 1 || s.Bytes != 0 || s.Entries != 0 {
		t.Fatalf("after the canceled recording: %+v", s)
	}
	q.K = 3
	got, gotTel, err := e.Select(ctx, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	one := q
	one.Dataset, one.Data, one.Dist = "", hotels.ds, hotels.dist
	want, wantTel, err := Select(ctx, one, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultEqual(t, "after cancel", got, gotTel, want, wantTel)
	if !gotTel.FromTrajectory {
		t.Fatal("the query after the canceled recording did not record")
	}
	if s := e.Stats().TrajectoryCache; s.Misses != 2 || s.Bytes == 0 {
		t.Fatalf("after the second recording: %+v", s)
	}
}

// TestEngineTrajectoryBounds: the trajectory LRU takes the result
// cache's byte budget and sizes entries exactly.
func TestEngineTrajectoryBounds(t *testing.T) {
	fixtures := engineFixtures(t)
	size := trajectoryBytes(t, newTestEngine(t, fixtures), Query{Dataset: "hotels", K: 3, Seed: 3, SampleSize: 80})
	e := NewEngine(EngineConfig{ResultCacheBytes: 2 * size})
	t.Cleanup(e.Close)
	for _, f := range fixtures {
		if err := e.Register(f.name, f.ds, f.dist); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, seed := range []uint64{1, 2, 3} {
		for _, k := range []int{2, 3} {
			if _, _, err := e.Select(ctx, Query{Dataset: "hotels", K: k, Seed: seed, SampleSize: 80}, Exec{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := e.Stats().TrajectoryCache
	if s.MaxBytes != 2*size || s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("trajectory cache %+v, want 2 of 3 trajectories kept", s)
	}
	if s.Bytes != 2*size {
		t.Fatalf("trajectory cache holds %d bytes", s.Bytes)
	}
}

// trajectoryBytes records q's instance trajectory outside the engine and
// returns its footprint.
func trajectoryBytes(t *testing.T, e *Engine, q Query) int64 {
	t.Helper()
	tr, err := core.ShrinkTrajectory(context.Background(), preparedFor(t, e, q).in, core.StrategyDelta)
	if err != nil {
		t.Fatal(err)
	}
	return trajectorySize(tr)
}

// preparedFor builds (or reads from e's prep cache) q's prepared state.
func preparedFor(t *testing.T, e *Engine, q Query) *prepared {
	t.Helper()
	reg, err := e.resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := deriveQuery(reg.ds, reg.dist, q, true)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := prepare(context.Background(), e, reg.ds, reg.dist, q, norm, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestEngineBatchKSweepRecordsOnce: a SelectBatch K-sweep equals the
// loop, plans the same groups, and records once — the representative
// marks the key, one released member records, and the rest wait for
// that recording or read it.
func TestEngineBatchKSweepRecordsOnce(t *testing.T) {
	fixtures := engineFixtures(t)
	ctx := context.Background()
	var queries []Query
	for _, k := range []int{2, 3, 4, 5, 6, 8} {
		queries = append(queries, Query{Dataset: "hotels", K: k, Seed: 9, SampleSize: 120})
	}
	queries = append(queries,
		Query{Dataset: "hotels", K: 4, Seed: 9, SampleSize: 120, Algorithm: GreedyShrinkLazy},
		Query{Dataset: "hotels", K: 4, Seed: 9, SampleSize: 120, Algorithm: GreedyAdd},
		Query{Dataset: "grid2d", K: 3, Seed: 9, SampleSize: 120})

	loop := newTestEngine(t, fixtures)
	want := make([]*Result, len(queries))
	wantTel := make([]*Telemetry, len(queries))
	for i, q := range queries {
		res, tel, err := loop.Select(ctx, q, Exec{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantTel[i] = res, tel
	}
	batch := newTestEngine(t, fixtures)
	slots, err := batch.SelectBatch(ctx, queries, Exec{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, slot := range slots {
		if slot.Err != nil {
			t.Fatalf("slot %d: %v", i, slot.Err)
		}
		assertResultEqual(t, fmt.Sprintf("slot %d", i), slot.Result, slot.Telemetry, want[i], wantTel[i])
	}
	if got, want := batch.Stats().PlanGroups, uint64(2); got != want {
		t.Fatalf("plan groups %d, want %d", got, want)
	}
	// The delta sweep (6 members) marks once, records once and serves
	// the other 4; the lone lazy member and grid2d's lone member are
	// first sightings.
	s := batch.Stats().TrajectoryCache
	if s.Rejected != 3 || s.Misses != 1 || s.Hits+s.Coalesced != 4 || s.Errors != 0 {
		t.Fatalf("trajectory cache %+v, want 3 first sightings, 1 recording, 4 served", s)
	}
}
