package fam

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// BenchmarkEngineConcurrent measures the serving path: one Engine, a
// mixed query set (three k values on an n=10,000 anticorrelated 6-d
// dataset), and 1/4/8 concurrent clients.
//
//   - cold: a fresh Engine per iteration — every query pays
//     preprocessing (skyline, sampling, utility-matrix materialization)
//     once per artifact, concurrent clients deduped by singleflight.
//   - warm: a pre-warmed Engine — queries never touch preprocessing
//     (the benchmark asserts zero fills during the timed section) and
//     are answered from the result cache.
//
// The cold/warm gap is the amortization the Engine exists to provide.
func BenchmarkEngineConcurrent(b *testing.B) {
	ds, err := Synthetic(10_000, 6, Anticorrelated, 1)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		b.Fatal(err)
	}
	queries := []Query{
		{Dataset: "bench", K: 5, Seed: 7, SampleSize: 200},
		{Dataset: "bench", K: 10, Seed: 7, SampleSize: 200},
		{Dataset: "bench", K: 10, Seed: 7, SampleSize: 200, Algorithm: GreedyAdd},
	}
	ctx := context.Background()

	runClients := func(b *testing.B, e *Engine, clients int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < len(queries); i++ {
					q := queries[(i+c)%len(queries)]
					if _, _, err := e.Select(ctx, q, Exec{}); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}

	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("cold/clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEngine(EngineConfig{})
				if err := e.Register("bench", ds, dist); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				runClients(b, e, clients)
				b.StopTimer()
				s := e.Stats()
				if s.PrepCache.Misses == 0 {
					b.Fatal("cold run did no preprocessing")
				}
				e.Close()
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("warm/clients=%d", clients), func(b *testing.B) {
			e := NewEngine(EngineConfig{})
			defer e.Close()
			if err := e.Register("bench", ds, dist); err != nil {
				b.Fatal(err)
			}
			runClients(b, e, clients) // warm every cache
			before := e.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runClients(b, e, clients)
			}
			b.StopTimer()
			after := e.Stats()
			// The acceptance contract: warm queries skip preprocessing
			// entirely — zero new fills, no re-materialized matrices.
			if after.PrepCache.Misses != before.PrepCache.Misses {
				b.Fatalf("warm run re-ran preprocessing: %d fills vs %d", after.PrepCache.Misses, before.PrepCache.Misses)
			}
			if after.ResultCache.Misses != before.ResultCache.Misses {
				b.Fatalf("warm run recomputed results: %d fills vs %d", after.ResultCache.Misses, before.ResultCache.Misses)
			}
			if after.ResultCache.Hits <= before.ResultCache.Hits {
				b.Fatal("warm run produced no cache hits")
			}
		})
	}
}

// BenchmarkEngineBatch measures the batched serving surface against a
// query-at-a-time loop on a k-sweep (the access pattern of the paper's
// Figures 5–8: every k on one dataset). The batch amortizes one
// preprocessing pass — the benchmark asserts the whole 8-query sweep
// performs exactly one skyline build, one function sampling, and one
// instance materialization — and fans the member query phases out over
// the shared pool.
func BenchmarkEngineBatch(b *testing.B) {
	ds, err := Synthetic(10_000, 6, Anticorrelated, 1)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		b.Fatal(err)
	}
	sweep := make([]Query, 8)
	for i := range sweep {
		sweep[i] = Query{Dataset: "bench", K: 2 + 2*i, Seed: 7, SampleSize: 200}
	}
	ctx := context.Background()

	b.Run("batch/k-sweep=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := NewEngine(EngineConfig{})
			if err := e.Register("bench", ds, dist); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			slots, err := e.SelectBatch(ctx, sweep, Exec{})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			for j, slot := range slots {
				if slot.Err != nil {
					b.Fatalf("slot %d: %v", j, slot.Err)
				}
			}
			// The acceptance contract: the sweep shares one preprocessing
			// pass (sky + funcs + instance = 3 fills, each exactly once).
			if s := e.Stats(); s.PrepCache.Misses != 3 {
				b.Fatalf("k-sweep did %d prep fills, want exactly 3 (one pass)", s.PrepCache.Misses)
			}
			e.Close()
			b.StartTimer()
		}
	})
	b.Run("loop/k-sweep=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := NewEngine(EngineConfig{})
			if err := e.Register("bench", ds, dist); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, q := range sweep {
				if _, _, err := e.Select(ctx, q, Exec{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			e.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkEngineBatchPlanned measures the batch planner on a
// duplicate-heavy panel: a k-sweep where every query appears twice (the
// shape of a dashboard fan-out where several tenants ask the same
// panel). The planner answers the duplicates by copying their leader's
// slot — zero solver work, exact PlannedDedups — and fills the shared
// preprocessing with one representative pass, no singleflight races.
func BenchmarkEngineBatchPlanned(b *testing.B) {
	ds, err := Synthetic(10_000, 6, Anticorrelated, 1)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Query, 16)
	for i := 0; i < 8; i++ {
		q := Query{Dataset: "bench", K: 2 + 2*i, Seed: 7, SampleSize: 200}
		batch[2*i] = q
		batch[2*i+1] = q // exact duplicate — planner dedup, not a re-solve
	}
	ctx := context.Background()

	b.Run("planned/dup-sweep=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := NewEngine(EngineConfig{})
			if err := e.Register("bench", ds, dist); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			slots, err := e.SelectBatch(ctx, batch, Exec{})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			for j, slot := range slots {
				if slot.Err != nil {
					b.Fatalf("slot %d: %v", j, slot.Err)
				}
			}
			s := e.Stats()
			if s.PlannedDedups != 8 {
				b.Fatalf("planned dedups = %d, want 8", s.PlannedDedups)
			}
			if s.PrepCache.Misses != 3 || s.PrepCache.Coalesced != 0 {
				b.Fatalf("prep fills = %d coalesced = %d, want 3 and 0", s.PrepCache.Misses, s.PrepCache.Coalesced)
			}
			e.Close()
			b.StartTimer()
		}
	})
}
