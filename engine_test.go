package fam

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// engineFixtures builds the three datasets the engine suites query:
// hotels (5-d, skyline-restricted algorithms), an anticorrelated 2-d set
// (DP2D), and a tiny 3-d set (BruteForce).
type engineFixture struct {
	name string
	ds   *Dataset
	dist Distribution
}

func engineFixtures(t testing.TB) []engineFixture {
	t.Helper()
	hotels, err := Hotels(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	hotelDist, err := UniformLinear(hotels.Dim())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Synthetic(80, 2, Anticorrelated, 7)
	if err != nil {
		t.Fatal(err)
	}
	gridDist, err := UniformBoxLinear(2)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := Synthetic(25, 3, Independent, 11)
	if err != nil {
		t.Fatal(err)
	}
	tinyDist, err := UniformLinear(3)
	if err != nil {
		t.Fatal(err)
	}
	return []engineFixture{
		{"hotels", hotels, hotelDist},
		{"grid2d", grid, gridDist},
		{"tiny", tiny, tinyDist},
	}
}

// engineQuery is one Select combo; q.Dataset names the fixture.
type engineQuery struct {
	q    Query
	exec Exec
}

// oneShot binds the query to its fixture for a one-shot Select.
func (eq engineQuery) oneShot(f engineFixture) Query {
	q := eq.q
	q.Data, q.Dist = f.ds, f.dist
	return q
}

func engineQueries() []engineQuery {
	with := func(ds string, k int, algo Algorithm) engineQuery {
		return engineQuery{q: Query{Dataset: ds, K: k, Algorithm: algo, Seed: 9, SampleSize: 120}}
	}
	lazy := with("hotels", 5, GreedyShrinkLazy)
	lazy.exec.LazyBatch = 4
	return []engineQuery{
		with("hotels", 5, GreedyShrink),
		lazy,
		with("hotels", 3, GreedyShrinkNaive),
		with("hotels", 7, GreedyAdd),
		with("hotels", 5, KHit),
		with("hotels", 4, MRRGreedy),
		with("hotels", 4, SkyDom),
		with("grid2d", 3, DP2D),
		with("grid2d", 4, GreedyShrink),
		with("tiny", 3, BruteForce),
	}
}

// evalQuery is one (dataset, set) Evaluate combo.
var engineEvalQueries = []struct {
	dataset string
	set     []int
}{
	{"hotels", []int{1, 2, 3, 4, 5}},
	{"grid2d", []int{0, 1, 2}},
	{"tiny", []int{0, 1}},
}

func newTestEngine(t testing.TB, fixtures []engineFixture) *Engine {
	t.Helper()
	e := NewEngine(EngineConfig{})
	t.Cleanup(e.Close)
	for _, f := range fixtures {
		if err := e.Register(f.name, f.ds, f.dist); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// assertResultEqual checks the bit-identity contract: everything except
// the timing fields and the Cached marker must match a one-shot Select,
// the solver's work counters included (a cache hit carries them under
// Telemetry.Replay).
func assertResultEqual(t testing.TB, label string, got *Result, gotTel *Telemetry, want *Result, wantTel *Telemetry) {
	t.Helper()
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("%s: %d indices, want %d", label, len(got.Indices), len(want.Indices))
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("%s: indices %v, want %v", label, got.Indices, want.Indices)
		}
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: labels %v, want %v", label, got.Labels, want.Labels)
		}
	}
	if got.ExactARR != want.ExactARR || got.SkylineSize != want.SkylineSize {
		t.Fatalf("%s: (ExactARR, SkylineSize) = (%v, %d), want (%v, %d)",
			label, got.ExactARR, got.SkylineSize, want.ExactARR, want.SkylineSize)
	}
	if gotTel.Replay != nil {
		gotTel = gotTel.Replay
	}
	if gotTel.Stats != wantTel.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, gotTel.Stats, wantTel.Stats)
	}
	assertMetricsEqual(t, label, got.Metrics, want.Metrics)
}

func assertMetricsEqual(t testing.TB, label string, got, want Metrics) {
	t.Helper()
	if got.ARR != want.ARR || got.VRR != want.VRR || got.StdDev != want.StdDev ||
		got.MaxRR != want.MaxRR || got.DegenerateUsers != want.DegenerateUsers {
		t.Fatalf("%s: metrics %+v, want %+v", label, got, want)
	}
	if len(got.Percentiles) != len(want.Percentiles) {
		t.Fatalf("%s: %d percentiles, want %d", label, len(got.Percentiles), len(want.Percentiles))
	}
	for i := range want.Percentiles {
		if got.Percentiles[i] != want.Percentiles[i] {
			t.Fatalf("%s: percentiles %v, want %v", label, got.Percentiles, want.Percentiles)
		}
	}
}

// TestEngineMatchesOneShot drives every algorithm through a warm and a
// cold Engine path and pins bit-identity against fresh one-shot calls.
func TestEngineMatchesOneShot(t *testing.T) {
	fixtures := engineFixtures(t)
	e := newTestEngine(t, fixtures)
	ctx := context.Background()
	byName := map[string]engineFixture{}
	for _, f := range fixtures {
		byName[f.name] = f
	}

	for _, q := range engineQueries() {
		label := fmt.Sprintf("%s/%s/k=%d", q.q.Dataset, q.q.Algorithm, q.q.K)
		want, wantTel, err := Select(ctx, q.oneShot(byName[q.q.Dataset]), q.exec)
		if err != nil {
			t.Fatalf("%s one-shot: %v", label, err)
		}
		cold, coldTel, err := e.Select(ctx, q.q, q.exec)
		if err != nil {
			t.Fatalf("%s cold: %v", label, err)
		}
		if cold.Cached {
			t.Fatalf("%s: cold query reported Cached", label)
		}
		assertResultEqual(t, label+" cold", cold, coldTel, want, wantTel)
		warm, warmTel, err := e.Select(ctx, q.q, q.exec)
		if err != nil {
			t.Fatalf("%s warm: %v", label, err)
		}
		if !warm.Cached {
			t.Fatalf("%s: warm query not served from result cache", label)
		}
		assertResultEqual(t, label+" warm", warm, warmTel, want, wantTel)
	}

	for _, q := range engineEvalQueries {
		f := byName[q.dataset]
		want, err := Evaluate(ctx, Query{Data: f.ds, Dist: f.dist, ExplicitSet: q.set, Seed: 9, SampleSize: 120}, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Evaluate(ctx, Query{Dataset: q.dataset, ExplicitSet: q.set, Seed: 9, SampleSize: 120}, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		assertMetricsEqual(t, q.dataset+" evaluate", got, want)
	}

	s := e.Stats()
	if s.ResultCache.Hits == 0 || s.ResultCache.Misses == 0 || s.PrepCache.Misses == 0 {
		t.Fatalf("caches never exercised: %+v", s)
	}
}

// TestEngineConcurrentStress is the serving-path race test: one Engine,
// mixed Select/Evaluate traffic across datasets and k values from many
// goroutines, every answer bit-identical to a fresh one-shot call. Run
// under -race in CI. It also pins the cache contracts: each distinct
// result is computed exactly once (singleflight dedup) no matter how
// many goroutines race for it cold, and a second concurrent sweep does
// no preprocessing work at all.
func TestEngineConcurrentStress(t *testing.T) {
	fixtures := engineFixtures(t)
	byName := map[string]engineFixture{}
	for _, f := range fixtures {
		byName[f.name] = f
	}
	queries := engineQueries()
	ctx := context.Background()

	// Ground truth from fresh one-shot calls.
	wantSelect := make([]*Result, len(queries))
	wantTel := make([]*Telemetry, len(queries))
	for i, q := range queries {
		res, tel, err := Select(ctx, q.oneShot(byName[q.q.Dataset]), q.exec)
		if err != nil {
			t.Fatal(err)
		}
		wantSelect[i], wantTel[i] = res, tel
	}
	wantEval := make([]Metrics, len(engineEvalQueries))
	for i, q := range engineEvalQueries {
		f := byName[q.dataset]
		m, err := Evaluate(ctx, Query{Data: f.ds, Dist: f.dist, ExplicitSet: q.set, Seed: 9, SampleSize: 120}, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		wantEval[i] = m
	}

	e := newTestEngine(t, fixtures)
	const goroutines = 6
	sweep := func() {
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				start.Wait() // maximize cold-cache collisions
				for i := range queries {
					j := (i + g) % len(queries) // interleave differently per goroutine
					q := queries[j]
					label := fmt.Sprintf("g%d %s/%s/k=%d", g, q.q.Dataset, q.q.Algorithm, q.q.K)
					got, tel, err := e.Select(ctx, q.q, q.exec)
					if err != nil {
						t.Errorf("%s: %v", label, err)
						return
					}
					assertResultEqual(t, label, got, tel, wantSelect[j], wantTel[j])
				}
				for i, q := range engineEvalQueries {
					m, err := e.Evaluate(ctx, Query{Dataset: q.dataset, ExplicitSet: q.set, Seed: 9, SampleSize: 120}, Exec{})
					if err != nil {
						t.Errorf("g%d evaluate %s: %v", g, q.dataset, err)
						return
					}
					assertMetricsEqual(t, fmt.Sprintf("g%d evaluate %s", g, q.dataset), m, wantEval[i])
				}
			}(g)
		}
		start.Done()
		wg.Wait()
	}

	sweep()
	cold := e.Stats()
	// Singleflight dedup: every distinct result was computed exactly once
	// even though 6 goroutines raced for it from a cold cache; everyone
	// else either coalesced onto the in-flight computation or hit the
	// stored entry.
	if got, want := cold.ResultCache.Misses, uint64(len(queries)); got != want {
		t.Fatalf("result fills = %d, want exactly %d (singleflight dedup)", got, want)
	}
	totalSelects := uint64(goroutines * len(queries))
	if got := cold.ResultCache.Hits + cold.ResultCache.Coalesced + cold.ResultCache.Misses; got != totalSelects {
		t.Fatalf("hits(%d) + coalesced(%d) + misses(%d) = %d, want %d",
			cold.ResultCache.Hits, cold.ResultCache.Coalesced, cold.ResultCache.Misses, got, totalSelects)
	}
	if cold.PrepCache.Misses == 0 {
		t.Fatal("no preprocessing artifacts were built")
	}
	if cold.Selects != totalSelects || cold.Evaluates != uint64(goroutines*len(engineEvalQueries)) {
		t.Fatalf("query counters %+v", cold)
	}

	sweep()
	warm := e.Stats()
	// Warm sweep: zero new fills anywhere — no preprocessing re-run, no
	// re-materialized matrices, every Select answered from the result
	// cache.
	if warm.PrepCache.Misses != cold.PrepCache.Misses {
		t.Fatalf("warm sweep rebuilt preprocessing: %d fills vs %d", warm.PrepCache.Misses, cold.PrepCache.Misses)
	}
	if warm.ResultCache.Misses != cold.ResultCache.Misses {
		t.Fatalf("warm sweep recomputed results: %d fills vs %d", warm.ResultCache.Misses, cold.ResultCache.Misses)
	}
	if warm.ResultCache.Hits <= cold.ResultCache.Hits {
		t.Fatalf("warm sweep produced no result-cache hits: %+v", warm.ResultCache)
	}
}

// TestEngineFailFast: invalid requests are rejected by the shared
// normalization before any cache or preprocessing work happens.
func TestEngineFailFast(t *testing.T) {
	fixtures := engineFixtures(t)
	e := newTestEngine(t, fixtures)
	ctx := context.Background()

	cases := []struct {
		name string
		q    Query
	}{
		{"k zero", Query{K: 0}},
		{"k too large", Query{K: 10_000}},
		{"bad epsilon", Query{K: 3, Epsilon: 2}},
		{"bad sigma", Query{K: 3, Sigma: -0.5}},
		{"negative sample size", Query{K: 3, SampleSize: -1}},
		{"unknown algorithm", Query{K: 3, Algorithm: Algorithm(99)}},
		{"exact discrete on continuous", Query{K: 3, ExactDiscrete: true}},
	}
	for _, tc := range cases {
		tc.q.Dataset = "hotels"
		if _, _, err := e.Select(ctx, tc.q, Exec{}); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("%s: err = %v, want ErrBadOptions", tc.name, err)
		}
	}
	if _, _, err := e.Select(ctx, Query{Dataset: "nope", K: 3}, Exec{}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if _, err := e.Evaluate(ctx, Query{Dataset: "hotels", ExplicitSet: []int{1, 1}, SampleSize: 50}, Exec{}); !errors.Is(err, ErrInvalidSet) {
		t.Fatalf("invalid set: %v", err)
	}
	s := e.Stats()
	if s.PrepCache.Misses != 0 || s.ResultCache.Misses != 0 {
		t.Fatalf("bad requests reached the caches: %+v", s)
	}

	if err := e.Register("hotels", fixtures[0].ds, fixtures[0].dist); !errors.Is(err, ErrDuplicateDataset) {
		t.Fatalf("duplicate register: %v", err)
	}
	e.Close()
	if _, _, err := e.Select(ctx, Query{Dataset: "hotels", K: 3}, Exec{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("closed engine select: %v", err)
	}
	if _, err := e.Evaluate(ctx, Query{Dataset: "hotels", ExplicitSet: []int{0}}, Exec{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("closed engine evaluate: %v", err)
	}
	if err := e.Register("x", fixtures[0].ds, fixtures[0].dist); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("closed engine register: %v", err)
	}
}

// TestEngineResultIsolation: mutating a returned Result must not corrupt
// the cache.
func TestEngineResultIsolation(t *testing.T) {
	e := newTestEngine(t, engineFixtures(t))
	ctx := context.Background()
	q := Query{Dataset: "hotels", K: 5, Seed: 9, SampleSize: 120}
	first, _, err := e.Select(ctx, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), first.Indices...)
	first.Indices[0] = -999
	first.Labels[0] = "corrupted"
	first.Metrics.Percentiles[0] = -1
	second, _, err := e.Select(ctx, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if second.Indices[i] != want[i] {
			t.Fatalf("cache corrupted through returned pointer: %v, want %v", second.Indices, want)
		}
	}
	if second.Metrics.Percentiles[0] < 0 {
		t.Fatal("metrics corrupted through returned pointer")
	}
}

// TestEngineCachePolicyKnobs: EngineConfig's TTL and byte-budget options
// reach the caches and surface in Stats (and therefore in /v1/stats).
func TestEngineCachePolicyKnobs(t *testing.T) {
	fixtures := engineFixtures(t)
	e := NewEngine(EngineConfig{
		ResultCacheTTL:   30 * time.Millisecond,
		ResultCacheBytes: 1 << 20,
		PrepCacheBytes:   64 << 20,
	})
	t.Cleanup(e.Close)
	for _, f := range fixtures {
		if err := e.Register(f.name, f.ds, f.dist); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	q := Query{Dataset: "hotels", K: 3, Seed: 1, SampleSize: 80}
	if _, _, err := e.Select(ctx, q, Exec{}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.ResultCache.TTL != 30*time.Millisecond || s.ResultCache.MaxBytes != 1<<20 {
		t.Fatalf("result cache policy not surfaced: %+v", s.ResultCache)
	}
	if s.PrepCache.MaxBytes != 64<<20 {
		t.Fatalf("prep cache policy not surfaced: %+v", s.PrepCache)
	}
	if s.ResultCache.Bytes <= 0 {
		t.Fatalf("result entry has no size estimate: %+v", s.ResultCache)
	}

	// Warm within the TTL…
	warm, _, err := e.Select(ctx, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("within-TTL query missed the cache")
	}
	// …expired after it: the answer is recomputed (bit-identically).
	time.Sleep(80 * time.Millisecond)
	expired, _, err := e.Select(ctx, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if expired.Cached {
		t.Fatal("expired entry still served as a hit")
	}
	if e.Stats().ResultCache.Expired == 0 {
		t.Fatal("expiry not counted")
	}
	for i := range warm.Indices {
		if expired.Indices[i] != warm.Indices[i] {
			t.Fatalf("recomputed answer differs: %v vs %v", expired.Indices, warm.Indices)
		}
	}
}

// TestEngineStatsBatchSnapshotInvariants: Stats snapshots taken while
// batches are in flight must never show the documented cross-counter
// inequalities torn — BatchQueries bounds Batches, PlannedDedups, and
// PlanGroups in every snapshot, because SelectBatch orders its
// increments and Stats orders its loads. Run under -race.
func TestEngineStatsBatchSnapshotInvariants(t *testing.T) {
	e := newTestEngine(t, engineFixtures(t))
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Batches with a planned duplicate (two equal members) so
				// PlannedDedups moves alongside BatchQueries/PlanGroups.
				q := Query{Dataset: "tiny", K: 2 + (i+g)%2, Seed: uint64(g), SampleSize: 40}
				if _, err := e.SelectBatch(ctx, []Query{q, q, {Dataset: "tiny", K: 4, Seed: uint64(g), SampleSize: 40}}, Exec{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := e.Stats()
		if s.Batches > s.BatchQueries {
			t.Fatalf("torn snapshot: Batches %d > BatchQueries %d", s.Batches, s.BatchQueries)
		}
		if s.PlannedDedups > s.BatchQueries {
			t.Fatalf("torn snapshot: PlannedDedups %d > BatchQueries %d", s.PlannedDedups, s.BatchQueries)
		}
		if s.PlanGroups > s.BatchQueries {
			t.Fatalf("torn snapshot: PlanGroups %d > BatchQueries %d", s.PlanGroups, s.BatchQueries)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced, the exact relations hold: 3 members and 1 dedup per batch.
	s := e.Stats()
	if s.BatchQueries != 3*s.Batches {
		t.Fatalf("quiesced: BatchQueries %d != 3×Batches %d", s.BatchQueries, s.Batches)
	}
	if s.PlannedDedups != s.Batches {
		t.Fatalf("quiesced: PlannedDedups %d != Batches %d", s.PlannedDedups, s.Batches)
	}
}

// TestExecWeightIsExecutionPolicyOnly: the per-tenant weight override
// must never change an answer — only grant order. Equal queries at
// different weights share one result-cache entry and return identical
// selections.
func TestExecWeightIsExecutionPolicyOnly(t *testing.T) {
	e := newTestEngine(t, engineFixtures(t))
	ctx := context.Background()
	q := Query{Dataset: "hotels", K: 4, Seed: 9, SampleSize: 120}

	base, _, err := e.Select(ctx, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, _, err := e.Select(ctx, q, Exec{Weight: 32, Priority: PriorityLow})
	if err != nil {
		t.Fatal(err)
	}
	if !weighted.Cached {
		t.Fatal("weighted run missed the cache: Weight leaked into the query identity")
	}
	if len(base.Indices) != len(weighted.Indices) {
		t.Fatalf("selection sizes differ: %d vs %d", len(base.Indices), len(weighted.Indices))
	}
	for i := range base.Indices {
		if base.Indices[i] != weighted.Indices[i] {
			t.Fatalf("selections differ at %d: %v vs %v", i, base.Indices, weighted.Indices)
		}
	}
}
