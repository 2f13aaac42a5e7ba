package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/regretlab/fam/internal/sched"
)

// blocksOf records the (w, lo, hi) triples a Shards run hands out.
func blocksOf(t *testing.T, run func(fn func(w, lo, hi int)) error) map[[3]int]bool {
	t.Helper()
	var mu sync.Mutex
	got := map[[3]int]bool{}
	if err := run(func(w, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		key := [3]int{w, lo, hi}
		if got[key] {
			t.Errorf("block %v dispatched twice", key)
		}
		got[key] = true
	}); err != nil {
		t.Fatalf("Shards: %v", err)
	}
	return got
}

// TestPoolShardsMatchesPlainShards pins the determinism contract: the
// pool hands out exactly the block decomposition of package-level Shards.
func TestPoolShardsMatchesPlainShards(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	ctx := context.Background()
	for _, n := range []int{1, 2, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			plain := blocksOf(t, func(fn func(w, lo, hi int)) error {
				return Shards(ctx, workers, n, fn)
			})
			pooled := blocksOf(t, func(fn func(w, lo, hi int)) error {
				return pool.Shards(ctx, workers, n, fn)
			})
			if len(plain) != len(pooled) {
				t.Fatalf("n=%d workers=%d: %d plain blocks vs %d pooled", n, workers, len(plain), len(pooled))
			}
			for b := range plain {
				if !pooled[b] {
					t.Fatalf("n=%d workers=%d: block %v missing from pooled run", n, workers, b)
				}
			}
		}
	}
}

// TestPoolNilFallsBackToShards: a nil pool must behave exactly like the
// plain Shards so optional threading needs no branches.
func TestPoolNilFallsBackToShards(t *testing.T) {
	var p *Pool
	var ran atomic.Int64
	if err := p.Shards(context.Background(), 4, 100, func(w, lo, hi int) {
		ran.Add(int64(hi - lo))
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("nil pool covered %d of 100 items", ran.Load())
	}
	if p.Size() != 0 {
		t.Fatalf("nil pool Size = %d", p.Size())
	}
	p.Close() // must not panic
}

// TestPoolSaturationNoDeadlock: many concurrent queries on a tiny pool
// must all complete because callers participate in their own work.
func TestPoolSaturationNoDeadlock(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	var covered atomic.Int64
	const queries, items = 32, 257
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pool.Shards(ctx, 8, items, func(w, lo, hi int) {
				covered.Add(int64(hi - lo))
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if covered.Load() != queries*items {
		t.Fatalf("covered %d of %d items", covered.Load(), queries*items)
	}
}

// TestPoolHelpersParticipate: with an idle pool, all blocks of one call
// run concurrently (caller + helpers), proven by a barrier that only
// opens when every block has started.
func TestPoolHelpersParticipate(t *testing.T) {
	const workers = 4
	pool := NewPool(workers)
	defer pool.Close()
	var barrier sync.WaitGroup
	barrier.Add(workers)
	if err := pool.Shards(context.Background(), workers, workers*Grain*100, func(w, lo, hi int) {
		barrier.Done()
		barrier.Wait() // deadlocks unless all blocks run concurrently
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolClosedStillServes: Shards after Close falls back to running all
// blocks on the caller.
func TestPoolClosedStillServes(t *testing.T) {
	pool := NewPool(2)
	pool.Close()
	pool.Close() // idempotent
	var covered atomic.Int64
	if err := pool.Shards(context.Background(), 4, 100, func(w, lo, hi int) {
		covered.Add(int64(hi - lo))
	}); err != nil {
		t.Fatal(err)
	}
	if covered.Load() != 100 {
		t.Fatalf("covered %d of 100 items after Close", covered.Load())
	}
}

// TestPoolPreCanceledContext: a canceled context stops the call before
// any block runs, mirroring the plain Shards contract.
func TestPoolPreCanceledContext(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := pool.Shards(ctx, 4, 100, func(w, lo, hi int) { ran = true })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("block ran despite pre-canceled context")
	}
}

// TestPoolPriorityGrantOrder is the deterministic scheduler test of the
// grant order: with the single helper occupied and both requests
// already queued, releasing the helper must grant the high-priority
// request before the earlier-arrived low-priority one. The test drives
// the grant queue white-box (the helper is saturated by a directly
// enqueued blocker), so there is no timing dependence: the pop order is
// exactly the WeightedEDF order.
func TestPoolPriorityGrantOrder(t *testing.T) {
	pool := NewPoolConfig(Config{Size: 1})
	defer pool.Close()

	// Saturate the only helper with a blocker.
	block := make(chan struct{})
	started := make(chan struct{})
	pool.queue.Push(sched.Attrs{}, nil, func() {
		close(started)
		<-block
	})
	pool.wake <- struct{}{}
	<-started

	// Queue low-priority work first, high-priority second; both are
	// pending before the helper frees up.
	order := make(chan string, 2)
	pool.queue.Push(sched.Attrs{Priority: sched.Low}, nil, func() { order <- "low" })
	pool.queue.Push(sched.Attrs{Priority: sched.High}, nil, func() { order <- "high" })
	pool.wake <- struct{}{}
	close(block)

	if first := <-order; first != "high" {
		t.Fatalf("first grant went to %q, want the high-priority request", first)
	}
	if second := <-order; second != "low" {
		t.Fatalf("second grant went to %q, want the queued low-priority request", second)
	}
}

// TestPoolEDFGrantOrder: among queued requests of one class, the
// earlier deadline is granted first regardless of arrival order —
// deterministic under the injected clock.
func TestPoolEDFGrantOrder(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	pool := NewPoolConfig(Config{Size: 1, Clock: func() time.Time { return t0 }})
	defer pool.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	pool.queue.Push(sched.Attrs{}, nil, func() {
		close(started)
		<-block
	})
	pool.wake <- struct{}{}
	<-started

	order := make(chan string, 3)
	pool.queue.Push(sched.Attrs{Deadline: t0.Add(9 * time.Second)}, nil, func() { order <- "9s" })
	pool.queue.Push(sched.Attrs{Deadline: t0.Add(3 * time.Second)}, nil, func() { order <- "3s" })
	pool.queue.Push(sched.Attrs{Deadline: t0.Add(6 * time.Second)}, nil, func() { order <- "6s" })
	pool.wake <- struct{}{}
	close(block)

	for _, want := range []string{"3s", "6s", "9s"} {
		if got := <-order; got != want {
			t.Fatalf("grant = %q, want %q (EDF order)", got, want)
		}
	}
}

// TestPoolShedsExpiredDeadline: admission control rejects a Shards call
// whose context deadline attr already passed — no block runs, the call
// reports sched.ErrShed, and the shed is counted.
func TestPoolShedsExpiredDeadline(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	pool := NewPoolConfig(Config{Size: 2, Clock: func() time.Time { return t0 }})
	defer pool.Close()

	ctx := sched.NewContext(context.Background(), sched.Attrs{Deadline: t0.Add(-time.Second)})
	ran := false
	err := pool.Shards(ctx, 4, 100, func(w, lo, hi int) { ran = true })
	if !errors.Is(err, sched.ErrShed) {
		t.Fatalf("err = %v, want sched.ErrShed", err)
	}
	if ran {
		t.Fatal("block ran despite expired deadline")
	}
	if s := pool.SchedStats(); s.Shed != 1 {
		t.Fatalf("shed count = %d, want 1", s.Shed)
	}

	// A live deadline is admitted and the call completes normally.
	live := sched.NewContext(context.Background(), sched.Attrs{Deadline: t0.Add(time.Hour)})
	var covered atomic.Int64
	if err := pool.Shards(live, 4, 100, func(w, lo, hi int) { covered.Add(int64(hi - lo)) }); err != nil {
		t.Fatal(err)
	}
	if covered.Load() != 100 {
		t.Fatalf("covered %d of 100", covered.Load())
	}
}

// TestPoolAttrsKeepDecompositionIdentical: scheduling attributes must
// never change block boundaries — the bit-determinism contract.
func TestPoolAttrsKeepDecompositionIdentical(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	ctx := sched.NewContext(context.Background(),
		sched.Attrs{Priority: sched.High, Deadline: time.Now().Add(time.Hour)})
	for _, n := range []int{1, 7, 100} {
		for _, workers := range []int{1, 3, 8} {
			plain := blocksOf(t, func(fn func(w, lo, hi int)) error {
				return Shards(context.Background(), workers, n, fn)
			})
			tagged := blocksOf(t, func(fn func(w, lo, hi int)) error {
				return pool.Shards(ctx, workers, n, fn)
			})
			if len(plain) != len(tagged) {
				t.Fatalf("n=%d workers=%d: %d blocks vs %d with attrs", n, workers, len(plain), len(tagged))
			}
			for b := range plain {
				if !tagged[b] {
					t.Fatalf("n=%d workers=%d: block %v missing under attrs", n, workers, b)
				}
			}
		}
	}
}

// TestPoolDefaultGrantOrder: a default NewPool grants requests without
// scheduling attributes in exact arrival order, and a High request
// queued after a Low one first. Each round queues its requests behind a
// blocker on the only helper of a fresh pool, so the pop order is
// deterministic.
func TestPoolDefaultGrantOrder(t *testing.T) {
	type req struct {
		name  string
		attrs sched.Attrs
	}
	rounds := []struct {
		reqs []req
		want []string
	}{
		{[]req{{"a", sched.Attrs{}}, {"b", sched.Attrs{}}, {"c", sched.Attrs{}}, {"d", sched.Attrs{}}}, []string{"a", "b", "c", "d"}},
		{[]req{{"low", sched.Attrs{Priority: sched.Low}}, {"high", sched.Attrs{Priority: sched.High}}}, []string{"high", "low"}},
	}
	for _, r := range rounds {
		pool := NewPool(1)
		block := make(chan struct{})
		started := make(chan struct{})
		pool.queue.Push(sched.Attrs{}, nil, func() {
			close(started)
			<-block
		})
		pool.wake <- struct{}{}
		<-started

		order := make(chan string, len(r.reqs))
		for _, q := range r.reqs {
			name := q.name
			pool.queue.Push(q.attrs, nil, func() { order <- name })
		}
		pool.wake <- struct{}{}
		close(block)
		for i, want := range r.want {
			if got := <-order; got != want {
				t.Fatalf("grant %d went to %q, want %q (order %v)", i, got, want, r.want)
			}
		}
		if s := pool.SchedStats(); s.Policy != "weighted-edf" || s.Granted != uint64(len(r.reqs)+1) {
			t.Fatalf("stats = %+v, want %d grants under weighted-edf", s, len(r.reqs)+1)
		}
		pool.Close()
	}
}

// TestPoolQueueDrainsAfterLoad: after sustained Shards traffic the
// grant queue must return to depth 0 — finished calls discard their
// unneeded tickets, so admission control never mistakes leftovers for
// genuine load — and helpers must have been granted real work along
// the way.
func TestPoolQueueDrainsAfterLoad(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	work := make([]float64, 1_000_000)
	for r := 0; r < 50; r++ {
		if err := pool.Shards(context.Background(), 4, len(work), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				work[i] += float64(i % 7)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d := pool.QueueDepth(); d != 0 {
		t.Fatalf("queue depth = %d after all calls finished, want 0", d)
	}
	s := pool.SchedStats()
	if s.Granted+s.Stale != 50*3 {
		t.Fatalf("granted %d + stale %d != %d requests", s.Granted, s.Stale, 50*3)
	}
}

// TestPoolShardsAttributesQueueWait: helper grants of a Shards call add
// their enqueue-to-grant latency to the wait counter carried in the
// call's scheduling attrs, and the attributed total matches the pool's
// own grant-wait sum exactly — no other traffic, same clock reads. The
// injected clock advances on every read, so the waits are strictly
// positive whenever a ticket is granted.
func TestPoolShardsAttributesQueueWait(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var ticks atomic.Int64
	clock := func() time.Time { return t0.Add(time.Duration(ticks.Add(1)) * time.Millisecond) }
	pool := NewPoolConfig(Config{Size: 2, Clock: clock})
	defer pool.Close()

	w := new(sched.WaitCounter)
	ctx := sched.NewContext(context.Background(), sched.Attrs{Wait: w})
	var total atomic.Int64
	if err := pool.Shards(ctx, 4, 1000, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			total.Add(int64(i))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := total.Load(), int64(1000*999/2); got != want {
		t.Fatalf("shard sum = %d, want %d", got, want)
	}
	s := pool.SchedStats()
	if w.Load() != s.QueueWait {
		t.Fatalf("attributed wait %v != pool grant-wait sum %v", w.Load(), s.QueueWait)
	}
	if s.Granted > 0 && w.Load() <= 0 {
		t.Fatalf("granted %d tickets under an advancing clock but attributed wait is %v", s.Granted, w.Load())
	}
}

// TestPoolPerClassStatsSurface: the queue's per-class counters flow
// through Pool.SchedStats — every class that requested helpers is
// accounted (each pushed ticket ends granted or stale), so the serving
// layers above can export per-class grant shares without reaching into
// internal/sched.
func TestPoolPerClassStatsSurface(t *testing.T) {
	pool := NewPoolConfig(Config{Size: 2})
	defer pool.Close()
	for _, p := range []sched.Priority{sched.Low, sched.High} {
		ctx := sched.NewContext(context.Background(), sched.Attrs{Priority: p})
		var n atomic.Int64
		if err := pool.Shards(ctx, 4, 200, func(_, lo, hi int) { n.Add(int64(hi - lo)) }); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 200 {
			t.Fatalf("covered %d of 200", n.Load())
		}
	}
	s := pool.SchedStats()
	if s.PerClass == nil {
		t.Fatal("SchedStats.PerClass not populated after classed traffic")
	}
	var granted, stale uint64
	for _, class := range []string{"low", "high"} {
		cs, ok := s.PerClass[class]
		if !ok || cs.Granted+cs.Stale == 0 {
			t.Fatalf("class %q unaccounted in %+v", class, s.PerClass)
		}
	}
	for _, cs := range s.PerClass {
		granted += cs.Granted
		stale += cs.Stale
	}
	if granted != s.Granted || stale != s.Stale {
		t.Fatalf("per-class sums (%d/%d) do not partition pool totals (%d/%d)", granted, stale, s.Granted, s.Stale)
	}
}
