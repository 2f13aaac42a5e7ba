package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/regretlab/fam/internal/obs"
	"github.com/regretlab/fam/internal/sched"
)

// Pool is a long-lived, bounded set of helper goroutines shared by every
// concurrent query of a serving process. A one-shot Select spawns its
// shard goroutines per call (package-level Shards); a server handling
// many concurrent queries instead multiplexes them over one Pool so the
// process never runs more than Size helper goroutines regardless of how
// many queries are in flight.
//
// Scheduling is caller-participating: Pool.Shards enqueues up to
// workers−1 helper requests and then works through the shard blocks on
// the calling goroutine itself, with helpers claiming further blocks as
// they arrive. The caller always makes progress, so a saturated pool
// degrades a query toward inline execution instead of deadlocking, and a
// closed (or nil) pool behaves exactly like the plain goroutine-per-shard
// Shards.
//
// Which queued request a freed helper serves next is decided by a
// pluggable grant policy (internal/sched): the default WeightedEDF
// orders ready requests by weighted priority class, then earliest
// deadline, then arrival — exact FIFO for requests without scheduling
// attributes, which is every caller that does not attach sched.Attrs to
// its context. Requests whose deadline has already passed are shed by
// admission control (Shards returns sched.ErrShed) instead of being
// queued.
//
// Block boundaries are computed exactly as in package-level Shards, and
// every block is claimed by exactly one runner, so the deterministic
// lowest-index reductions built on Shards are unaffected by which
// goroutine happens to execute a block — or by the order requests are
// granted helpers in.
type Pool struct {
	size      int
	queue     *sched.Queue
	wake      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// Config parameterizes NewPoolConfig. The zero value matches
// NewPool(0): GOMAXPROCS helpers under the default WeightedEDF grant
// policy on the real clock.
type Config struct {
	// Size is the helper goroutine count (0 or negative = GOMAXPROCS).
	Size int
	// Policy orders pending helper requests (nil = sched.WeightedEDF
	// with default class weights; sched.FIFO{} restores the legacy
	// arrival-order grants).
	Policy sched.Policy
	// Clock drives deadline admission and queue-wait accounting (nil =
	// real time). Tests inject a fixed clock for deterministic EDF
	// ordering and shed decisions.
	Clock sched.Clock
}

// NewPool starts a pool of `size` helper goroutines (0 or negative =
// GOMAXPROCS) with the default grant policy. Close releases them.
func NewPool(size int) *Pool {
	return NewPoolConfig(Config{Size: size})
}

// NewPoolConfig starts a pool with an explicit grant policy and clock.
func NewPoolConfig(cfg Config) *Pool {
	size := cfg.Size
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		size:  size,
		queue: sched.NewQueue(cfg.Policy, cfg.Clock),
		// The wake buffer lets a query signal its helper requests without
		// blocking even when all helpers are busy; a full buffer means
		// enough wakeups are already pending to drain the queue.
		wake: make(chan struct{}, size),
		done: make(chan struct{}),
	}
	for i := 0; i < size; i++ {
		go p.helperLoop()
	}
	return p
}

// helperLoop serves granted requests until the pool closes. After each
// wakeup the helper drains the grant queue: the policy picks the next
// request, stale tickets (their Shards call already finished) are
// discarded for free.
func (p *Pool) helperLoop() {
	for {
		select {
		case <-p.wake:
			for {
				run := p.queue.Pop()
				if run == nil {
					break
				}
				run()
			}
		case <-p.done:
			return
		}
	}
}

// Size returns the number of helper goroutines (0 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return p.size
}

// QueueDepth returns the number of pending helper requests (0 for a nil
// pool). Serving layers use it for load-shedding admission control; the
// count may include stale tickets not yet discarded, so it is an upper
// bound on genuinely waiting work.
func (p *Pool) QueueDepth() int {
	if p == nil {
		return 0
	}
	return p.queue.Depth()
}

// SchedStats returns a snapshot of the grant-queue counters (zero for a
// nil pool).
func (p *Pool) SchedStats() sched.Stats {
	if p == nil {
		return sched.Stats{}
	}
	return p.queue.Stats()
}

// Close stops the helper goroutines. Shards calls that are in flight
// finish normally (their callers run any unclaimed blocks), and later
// Shards calls still work — they just run without helpers. Close is
// idempotent and safe on a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.done) })
}

// Shards partitions [0, n) into contiguous blocks exactly like the
// package-level Shards and runs fn(w, lo, hi) once per block, using pool
// helpers plus the calling goroutine instead of spawning fresh
// goroutines. A nil receiver delegates to the package-level Shards, so
// code threaded with an optional pool needs no branching. All block
// writes happen-before Shards returns. A panicking block is handled as
// in the package-level Shards: the helper that ran it recovers and keeps
// serving, and the panic is re-raised on the caller after the join.
//
// Scheduling attributes attached to ctx via sched.NewContext order this
// call's helper requests against other queued work; a deadline that has
// already passed sheds the call (sched.ErrShed) before any block runs.
func (p *Pool) Shards(ctx context.Context, workers, n int, fn func(w, lo, hi int)) error {
	if p == nil {
		return Shards(ctx, workers, n, fn)
	}
	if n <= 0 {
		return ctx.Err()
	}
	// Admission control: work whose deadline has already passed can only
	// steal helpers from live requests — shed it before decomposition.
	attrs := sched.FromContext(ctx)
	// The current trace span (if any) rides on the ticket attrs so each
	// grant reports its enqueue-to-grant wait as a span event. Attached
	// here, not stored in the sched context: tracing must not turn an
	// otherwise attribute-less request into scheduled work.
	attrs.Span = obs.FromContext(ctx)
	if p.queue.ShedExpired(attrs) {
		return sched.ErrShed
	}
	workers = Workers(workers, n)
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers == 1 {
		fn(0, 0, n)
		return ctx.Err()
	}

	// Blocks are claimed through an atomic cursor: the caller and every
	// helper loop "claim next block, run it" until all blocks are taken.
	// A helper granted the request after the caller finished everything
	// finds the cursor exhausted and returns immediately.
	var next atomic.Int64
	var wg sync.WaitGroup
	var bp blockPanic
	wg.Add(workers)
	run := func() {
		for {
			w := int(next.Add(1)) - 1
			if w >= workers {
				return
			}
			bp.run(&wg, fn, w, w*n/workers, (w+1)*n/workers)
		}
	}
	call := &sched.Call{}
	p.requestHelpers(workers-1, attrs, call, run)
	// Give the woken helpers a scheduling point before the caller starts
	// claiming blocks. Without it a caller on a saturated single-P
	// runtime claims every block before any helper runs, so tickets only
	// ever go stale and the grant policy (and its per-class counters)
	// never gets to act.
	runtime.Gosched()
	run()
	wg.Wait()
	// Tickets not yet granted are stale: every block is claimed, so the
	// queue drops them now — they must not linger inflating the queue
	// depth that admission control reads.
	p.queue.FinishCall(call)
	bp.rethrow()
	return ctx.Err()
}

// requestHelpers enqueues up to count helper requests under the call's
// scheduling attributes and signals the helpers. A closed pool enqueues
// nothing — the caller-participating loop picks up the slack. Requests
// beyond the pool size are pointless (there are only size helpers) and
// are trimmed.
func (p *Pool) requestHelpers(count int, attrs sched.Attrs, call *sched.Call, run func()) {
	select {
	case <-p.done:
		return
	default:
	}
	if count > p.size {
		count = p.size
	}
	for h := 0; h < count; h++ {
		p.queue.Push(attrs, call, run)
	}
	// Wake signals are advisory: a full buffer means enough wakeups are
	// already pending, and the receiving helper drains the whole queue.
	for h := 0; h < count; h++ {
		select {
		case p.wake <- struct{}{}:
		default:
			return
		}
	}
}
