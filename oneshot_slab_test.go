package fam

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// slabQueries returns two one-shot GREEDY-SHRINK queries over one
// dataset whose utility matrices differ in shape (the sample sizes
// differ), so each call of one misses the spare the other released.
// The skyline is off, so the fill and the solve, which write and read
// the slab, take most of each call.
func slabQueries(t *testing.T) (a, b Query) {
	t.Helper()
	ds, err := Synthetic(800, 4, Anticorrelated, 5)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	a = Query{Data: ds, Dist: dist, K: 6, Seed: 3, SampleSize: 200, DisableSkyline: true}
	b = a
	b.SampleSize = 150
	return a, b
}

// allocatedBy returns the bytes the heap allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// semanticTel returns a copy of tel without the Stats fields that count
// workers and batches: the execution detail that differs between a
// parallel call and the serial one it is compared with.
func semanticTel(tel *Telemetry) *Telemetry {
	c := *tel
	c.Stats.Workers, c.Stats.ParallelBatches, c.Stats.SerialBatches = 0, 0, 0
	return &c
}

func mustSelect(t *testing.T, ctx context.Context, q Query, exec Exec) (*Result, *Telemetry) {
	t.Helper()
	res, tel, err := Select(ctx, q, exec)
	if err != nil {
		t.Fatal(err)
	}
	return res, tel
}

func mustEvaluate(t *testing.T, q Query, exec Exec) Metrics {
	t.Helper()
	m, err := Evaluate(context.Background(), q, exec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOneShotSlabReuseAllocs: a one-shot Select or Evaluate that follows
// one of the same shape reuses its matrix slab, so it allocates the
// N·n·8 bytes of the matrix less than the call that found none; a call
// of another shape in between misses and answers bit-identically. The
// bytes the calls allocate besides the matrix vary by a few KB between
// identical calls (pool refills after a GC), so the pin asks for half
// the matrix: without reuse the saving is about zero. Not parallel:
// TotalAlloc counts every goroutine.
func TestOneShotSlabReuseAllocs(t *testing.T) {
	ctx := context.Background()
	serial := Exec{Parallelism: 1}
	a, b := slabQueries(t)
	mustSelect(t, ctx, b, serial) // the spare now has b's shape
	var first, second *Result
	var firstTel, secondTel *Telemetry
	cold := allocatedBy(func() { first, firstTel = mustSelect(t, ctx, a, serial) })
	warm := allocatedBy(func() { second, secondTel = mustSelect(t, ctx, a, serial) })
	matrix := uint64(a.SampleSize*a.Data.N()) * 8
	if cold < warm+matrix/2 {
		t.Fatalf("Select allocated %d bytes cold and %d warm: the warm call saved under half the %d-byte matrix", cold, warm, matrix)
	}
	assertResultEqual(t, "warm Select", second, secondTel, first, firstTel)

	miss, missTel := mustSelect(t, ctx, b, Exec{})
	wantB, wantBTel := mustSelect(t, ctx, b, serial)
	assertResultEqual(t, "other shape", miss, semanticTel(missTel), wantB, semanticTel(wantBTel))
	again, againTel := mustSelect(t, ctx, a, serial)
	assertResultEqual(t, "after the other shape", again, againTel, first, firstTel)

	ea, eb := a, b
	ea.ExplicitSet, eb.ExplicitSet = first.Indices, first.Indices
	mustEvaluate(t, eb, serial)
	var m1, m2 Metrics
	cold = allocatedBy(func() { m1 = mustEvaluate(t, ea, serial) })
	warm = allocatedBy(func() { m2 = mustEvaluate(t, ea, serial) })
	if cold < warm+matrix/2 {
		t.Fatalf("Evaluate allocated %d bytes cold and %d warm: the warm call saved under half the %d-byte matrix", cold, warm, matrix)
	}
	assertMetricsEqual(t, "warm Evaluate", m2, m1)
	assertMetricsEqual(t, "Evaluate of the selected set", m1, first.Metrics)
}

// TestOneShotSlabConcurrent runs one-shot Selects of two shapes, two
// seeds each, from four goroutines, so slabs pass between calls in
// flight and calls of one shape fill different values; every answer
// must equal the serial one.
func TestOneShotSlabConcurrent(t *testing.T) {
	ctx := context.Background()
	a, b := slabQueries(t)
	a2, b2 := a, b
	a2.Seed, b2.Seed = 4, 4
	queries := []Query{a, b, a2, b2}
	type answer struct {
		res *Result
		tel *Telemetry
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		want[i].res, want[i].tel = mustSelect(t, ctx, q, Exec{Parallelism: 1})
	}
	const goroutines, rounds = 4, 8
	got := make([][]answer, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, tel, err := Select(ctx, queries[(g+r)%len(queries)], Exec{Parallelism: 1 + g%2})
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], answer{res, tel})
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for r, ans := range got[g] {
			w := want[(g+r)%len(queries)]
			assertResultEqual(t, fmt.Sprintf("goroutine %d round %d", g, r), ans.res, semanticTel(ans.tel), w.res, semanticTel(w.tel))
		}
	}
}

// pollCtx counts its Err polls and reports context.Canceled from the
// limit-th one on (never when limit is 0). Solvers poll once per item,
// so a limit between the polls of preprocessing and those of the whole
// call cancels the call mid-solve.
type pollCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.limit > 0 && n >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestOneShotSlabCanceled cancels a one-shot Select mid-solve and runs a
// same-shape Select right after it, which takes the slab the canceled
// call released: it must answer as the serial call does.
func TestOneShotSlabCanceled(t *testing.T) {
	a, _ := slabQueries(t)
	exec := Exec{Parallelism: 2}
	want, wantTel := mustSelect(t, context.Background(), a, Exec{Parallelism: 1})

	prepOnly := &pollCtx{Context: context.Background()}
	eval := a
	eval.ExplicitSet = want.Indices
	if _, err := Evaluate(prepOnly, eval, exec); err != nil {
		t.Fatal(err)
	}
	whole := &pollCtx{Context: context.Background()}
	mustSelect(t, whole, a, exec)
	prep, all := prepOnly.polls.Load(), whole.polls.Load()
	if all-prep < 4 {
		t.Fatalf("the solve polled the context %d times; the test needs a mid-solve poll", all-prep)
	}

	canceled := &pollCtx{Context: context.Background(), limit: prep + (all-prep)/2}
	if _, _, err := Select(canceled, a, exec); !errors.Is(err, context.Canceled) {
		t.Fatalf("Select canceled mid-solve: err %v, want context.Canceled", err)
	}
	got, gotTel := mustSelect(t, context.Background(), a, exec)
	assertResultEqual(t, "after the canceled Select", got, semanticTel(gotTel), want, semanticTel(wantTel))
}
