// Package par is the bounded worker pool shared by the query engine
// (internal/core) and the baselines (internal/baseline). It shards an
// index range [0, n) into one contiguous block per worker, which is the
// property every deterministic reduction in this repository relies on:
// per-item results are independent, blocks are ordered by index, so a
// merge that visits workers in ascending order with a strict comparison
// reproduces the serial lowest-index tie-break bit for bit.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a requested parallelism level against the number of
// independent items. Zero or negative requests mean "use every CPU"
// (GOMAXPROCS); the result is clamped to items so no worker starts empty,
// and is at least 1.
func Workers(requested, items int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Grain is the minimum number of cheap items per worker before a fan-out
// pays for its goroutine dispatch.
const Grain = 16

// Bounded resolves a worker count like Workers but additionally requires
// every worker to hold at least Grain items, shedding workers (rather
// than collapsing straight to serial) as batches shrink. Use it for
// cheap per-item work — O(n) scans and the like; callers whose items are
// individually expensive (an LP solve, a full candidate evaluation)
// should use Workers directly.
func Bounded(requested, items int) int {
	w := Workers(requested, items)
	if max := items / Grain; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Shards partitions [0, n) into `workers` contiguous blocks and runs
// fn(w, lo, hi) for block w on its own goroutine. With workers <= 1 (or
// nothing to do) fn runs inline on the caller's goroutine, so serial
// execution has zero scheduling overhead and identical semantics.
//
// fn is responsible for polling ctx inside its block when items are
// expensive (every solver in this repository checks once per item);
// Shards itself checks before dispatch and after the join, so a
// pre-canceled context never starts work and a mid-run cancellation is
// always reported. The returned error is ctx.Err() or nil — worker
// results travel through caller-owned slices indexed by item or worker.
//
// A panic in a block does not kill the process from its shard goroutine:
// every block's panic is recovered, the join still completes, and the
// panic of the lowest-numbered panicking block is then re-raised on the
// calling goroutine, where the caller's own recover can see it.
func Shards(ctx context.Context, workers, n int, fn func(w, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers == 1 {
		fn(0, 0, n)
		return ctx.Err()
	}
	var wg sync.WaitGroup
	var bp blockPanic
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go bp.run(&wg, fn, w, w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
	bp.rethrow()
	return ctx.Err()
}

// blockPanic carries a panic out of a fan-out's blocks: each block
// recovers its own panic so the join completes (and a pool helper
// survives), and the caller re-raises it after the join.
type blockPanic struct {
	mu  sync.Mutex
	w   int // block that raised val
	val any // nil while no block has panicked
}

// run executes block w of fn, records a panic instead of letting it
// unwind the goroutine, and marks the block done in every case.
func (bp *blockPanic) run(wg *sync.WaitGroup, fn func(w, lo, hi int), w, lo, hi int) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			bp.mu.Lock()
			if bp.val == nil || w < bp.w {
				bp.w, bp.val = w, r
			}
			bp.mu.Unlock()
		}
	}()
	fn(w, lo, hi)
}

// rethrow re-panics with the lowest-numbered block's panic value, if
// any. Call it after the join.
func (bp *blockPanic) rethrow() {
	if bp.val != nil {
		panic(bp.val)
	}
}
