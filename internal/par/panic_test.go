package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// catch runs f and returns the value its panic carried to this
// goroutine (nil when it returned normally).
func catch(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// barrierBlocks returns a block function that holds every block until
// all `workers` of them have started, so each runs on its own goroutine
// (on a pool: the caller and one helper per other block).
func barrierBlocks(workers int, fn func(w, lo, hi int)) func(w, lo, hi int) {
	var barrier sync.WaitGroup
	barrier.Add(workers)
	return func(w, lo, hi int) {
		barrier.Done()
		barrier.Wait()
		fn(w, lo, hi)
	}
}

// checkShardsPanic runs fan-outs whose blocks in `panicky` panic with
// their block number, and checks the caller sees the lowest one only
// after every other block has finished.
func checkShardsPanic(t *testing.T, shards func(ctx context.Context, workers, n int, fn func(w, lo, hi int)) error) {
	t.Helper()
	const workers, n = 4, 400
	for _, panicky := range [][]int{{1}, {3}, {2, 3}, {0, 1, 2, 3}} {
		var finished atomic.Int64
		got := catch(func() {
			_ = shards(context.Background(), workers, n, barrierBlocks(workers, func(w, lo, hi int) {
				for _, p := range panicky {
					if w == p {
						panic(w)
					}
				}
				finished.Add(1)
			}))
		})
		if got != panicky[0] {
			t.Fatalf("panicking blocks %v: caller recovered %v, want %d", panicky, got, panicky[0])
		}
		if want := int64(workers - len(panicky)); finished.Load() != want {
			t.Fatalf("panicking blocks %v: %d blocks finished before the re-panic, want %d", panicky, finished.Load(), want)
		}
	}
}

// A panic in a shard goroutine reaches the caller's recover instead of
// killing the process.
func TestShardsPanicReachesCaller(t *testing.T) {
	checkShardsPanic(t, Shards)
}

// The same holds on a pool, where the barrier puts panicking blocks on
// helpers, and the helpers survive to serve later calls: the final call
// gets past its barrier only if caller and helpers all run a block.
func TestPoolShardsPanicReachesCaller(t *testing.T) {
	const workers = 4
	pool := NewPool(workers)
	defer pool.Close()
	checkShardsPanic(t, pool.Shards)

	if err := pool.Shards(context.Background(), workers, workers*Grain, barrierBlocks(workers, func(w, lo, hi int) {})); err != nil {
		t.Fatal(err)
	}
}
