// Package sched is the scheduling subsystem of the serving path: the
// grant order that decides which queued helper request a freed pool
// worker serves next, the priority/deadline attributes that requests
// carry (threaded through a context so every Shards fan-out inherits
// them without signature changes), and the admission control that sheds
// work whose deadline has already passed.
//
// The package deliberately knows nothing about shard decomposition —
// internal/par owns block boundaries and the caller-participating
// execution loop, and delegates only the ordering of pending helper
// requests here. That split keeps every bit-determinism guarantee of
// the pool intact: the grant order changes which request a helper
// serves first, never which blocks a request is cut into.
package sched

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/regretlab/fam/internal/obs"
)

// Priority is a request's scheduling class. The zero value is Normal,
// so attribute-less traffic (every pre-existing caller) schedules
// exactly as before.
type Priority int8

// The three priority classes. The grant order sees them through their
// weights, so the classes are a vocabulary, not a hard-coded ladder.
const (
	Low    Priority = -1
	Normal Priority = 0
	High   Priority = 1
)

// String returns the stable lower-case class name used as the key of
// per-class stats maps and metric labels ("low", "normal", "high";
// custom classes render as "priority(<n>)").
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case Normal:
		return "normal"
	case High:
		return "high"
	}
	return fmt.Sprintf("priority(%d)", int8(p))
}

// Attrs are the scheduling attributes of one request: its priority
// class and its absolute deadline (zero = none). The zero value means
// "normal class, no deadline" — the behavior of every request before
// scheduling existed.
type Attrs struct {
	Priority Priority
	Deadline time.Time
	// Weight, when positive, overrides the request's class weight —
	// the per-tenant hook: a tenant granted Weight 8 inside the Normal
	// class outranks default Normal traffic and accrues deficit at its
	// own rate, without defining a new Priority. Zero means "use the
	// class weight from DefaultWeights".
	Weight int
	// SoftDeadline keeps the deadline as an ordering signal only: the
	// request still sorts earliest-deadline-first among its class, but
	// admission never sheds it when the deadline has passed. Detached
	// cache fills use it — a fill that outlives its requester's deadline
	// should complete and warm the cache, not abort half-built.
	SoftDeadline bool
	// Wait, when non-nil, accumulates the queue wait of every helper
	// ticket enqueued under these attrs: each grant adds its
	// enqueue-to-grant latency. Serving layers attach one counter per
	// query so queue wait is attributable per request, not only
	// engine-wide (Stats.QueueWait keeps the global sum).
	Wait *WaitCounter
	// Span, when non-nil, receives a "pool.grant" event with the
	// enqueue-to-grant wait for every granted ticket, so a trace shows
	// each individual grant beside the Wait counter's sum. Like Wait it
	// is observability, not a scheduling signal (zero() ignores it):
	// tracing a request must not change how it is granted helpers.
	Span *obs.Span
}

// WaitCounter accumulates queue-wait durations across concurrent
// grants. The zero value is ready to use; all methods are safe for
// concurrent use.
type WaitCounter struct {
	ns atomic.Int64
}

// Add records one grant's queue wait.
func (w *WaitCounter) Add(d time.Duration) {
	if w != nil {
		w.ns.Add(int64(d))
	}
}

// Load returns the total queue wait accumulated so far.
func (w *WaitCounter) Load() time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.ns.Load())
}

// zero reports whether the attrs carry no scheduling signal. A wait
// counter alone is a signal: it must reach the grant queue to
// attribute waits, even for normal-class no-deadline requests. So is a
// weight override — it changes grant order even within Normal.
func (a Attrs) zero() bool {
	return a.Priority == Normal && a.Deadline.IsZero() && a.Wait == nil && a.Weight == 0
}

type ctxKey struct{}

// NewContext returns a context carrying the scheduling attributes.
// Everything dispatched under the returned context — skyline scans,
// utility materialization, solver evaluations — is granted pool helpers
// per these attrs.
func NewContext(ctx context.Context, a Attrs) context.Context {
	return context.WithValue(ctx, ctxKey{}, a)
}

// FromContext returns the context's scheduling attributes (the zero
// Attrs when none were attached).
func FromContext(ctx context.Context) Attrs {
	a, _ := ctx.Value(ctxKey{}).(Attrs)
	return a
}

// ContextWithDefault attaches attrs only when the context does not
// already carry any: an instance-level default that request-level
// attrs always win over.
func ContextWithDefault(ctx context.Context, a Attrs) context.Context {
	if a.zero() {
		return ctx
	}
	if _, ok := ctx.Value(ctxKey{}).(Attrs); ok {
		return ctx
	}
	return NewContext(ctx, a)
}

// ErrShed is returned when admission control rejects a request whose
// deadline has already passed: running it could only waste helpers that
// live requests are waiting for. It wraps context.DeadlineExceeded so
// callers that only understand deadlines (e.g. an HTTP layer mapping
// overruns to 503) classify an escaped shed correctly.
var ErrShed = fmt.Errorf("sched: deadline already passed; request shed: %w", context.DeadlineExceeded)

// Clock abstracts time for deadline admission and queue-wait
// accounting; tests inject a fixed clock to make EDF ordering and shed
// decisions fully deterministic.
type Clock func() time.Time

// Ticket is the grant order's view of one queued helper request: its
// attributes and its arrival sequence number. Seq is a total order over
// arrivals, so the final tie-break on it is deterministic.
type Ticket struct {
	Attrs Attrs
	Seq   uint64
}

// DefaultWeights are the class weights of the grant order; a request's
// Attrs.Weight overrides its class weight. The spacing leaves room to
// slot custom classes between the built-in ones; a class absent from
// the map weighs as Normal.
var DefaultWeights = map[Priority]int{Low: 1, Normal: 4, High: 16}

// WeightedEDF is the grant order of every Queue: weighted priority
// classes first (higher weight granted first; equal weights
// interleave), earliest-deadline-first among requests of equal weight
// (a request without a deadline sorts after every request with one),
// arrival order as the final tie-break. With every request at the zero
// Attrs it degenerates to exact FIFO.
//
// Pure weight ordering would starve light classes without bound, so
// Queue pairs it with deficit-bounded grants: see the Queue
// documentation for the bound. A request's effective weight is
// Attrs.Weight when positive (the per-tenant override), else its class
// weight from DefaultWeights.
type WeightedEDF struct{}

// Name is the grant order's name as Stats.Policy reports it.
func (WeightedEDF) Name() string { return "weighted-edf" }

// classWeight returns the weight of the priority class.
func classWeight(c Priority) int {
	if v, ok := DefaultWeights[c]; ok {
		return v
	}
	return DefaultWeights[Normal]
}

// ticketWeight is the effective weight of one request: its per-tenant
// override when set, else its class weight.
func ticketWeight(t Ticket) int {
	if t.Attrs.Weight > 0 {
		return t.Attrs.Weight
	}
	return classWeight(t.Attrs.Priority)
}

// Less reports whether a is granted before b. It is a strict weak
// ordering that breaks every tie on Seq.
func (WeightedEDF) Less(a, b Ticket) bool {
	if wa, wb := ticketWeight(a), ticketWeight(b); wa != wb {
		return wa > wb
	}
	da, db := a.Attrs.Deadline, b.Attrs.Deadline
	switch {
	case da.IsZero() != db.IsZero():
		return !da.IsZero() // the request with a deadline is more urgent
	case !da.IsZero() && !da.Equal(db):
		return da.Before(db)
	}
	return a.Seq < b.Seq
}

// ClassStats is the per-priority-class slice of a queue's counters:
// the observable proof that no class is starving.
type ClassStats struct {
	// Granted, Stale, Shed and QueueWait are the class's share of the
	// same-named queue-wide counters.
	Granted   uint64        `json:"granted"`
	Stale     uint64        `json:"stale"`
	Shed      uint64        `json:"shed"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	// Depth is the class's share of the current queue depth.
	Depth int `json:"depth"`
}

// Stats is a point-in-time snapshot of a grant queue's counters.
type Stats struct {
	// Policy names the grant order: always "weighted-edf".
	Policy string `json:"policy"`
	// Granted counts helper requests handed to a worker; Stale counts
	// requests discarded because their Shards call had already finished
	// by the time a worker reached them (their blocks were all claimed —
	// a stale grant costs one queue pop, no work).
	Granted uint64 `json:"granted"`
	Stale   uint64 `json:"stale"`
	// Shed counts requests rejected by admission control because their
	// deadline had already passed when they asked for helpers.
	Shed uint64 `json:"shed"`
	// QueueWait is the summed time granted requests spent queued between
	// enqueue and grant; QueueWait/Granted is the average grant latency.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// Depth is the current number of queued requests (stale entries not
	// yet discarded included).
	Depth int `json:"depth"`
	// DeficitGrants counts grants where the anti-starvation machinery
	// overrode the WeightedEDF pick: an overdue lighter class was granted
	// ahead of a heavier one. Zero under any load the WeightedEDF order
	// serves fairly.
	DeficitGrants uint64 `json:"deficit_grants"`
	// PerClass breaks the counters down by priority class, keyed by
	// Priority.String(). Nil until the queue has seen any traffic.
	PerClass map[string]ClassStats `json:"per_class,omitempty"`
}

// Call marks the lifetime of one Shards invocation so the queue can
// discard its tickets once every block is claimed. It is created by the
// pool per Shards call, passed to every Push of that call, and finished
// through Queue.FinishCall after the join. A Call belongs to exactly
// one Queue; its fields are guarded by that queue's lock.
type Call struct {
	done  bool
	items []*item
}

// item is one queued helper request.
type item struct {
	ticket   Ticket
	enqueued time.Time
	call     *Call
	run      func()
	index    int // heap position
}

// classKey identifies one deficit-accounting class: the priority plus
// any per-tenant weight override. Overridden tickets form their own
// class, so a tenant's custom weight earns deficit at its own rate
// instead of piggybacking on the class default.
type classKey struct {
	prio   Priority
	weight int // Attrs.Weight override; 0 = class default
}

// classState is the live accounting of one backlogged class: how many
// of its tickets are queued and how much deficit it has accrued.
// Deficit resets when the class drains — credit never banks across
// idle periods, which is what keeps the deficit path exactly inactive
// (and grant order bit-identical to the pure WeightedEDF order)
// whenever classes are not simultaneously backlogged.
type classState struct {
	queued  int
	deficit int64
}

// Queue is the WeightedEDF-ordered set of pending helper requests. All
// methods are safe for concurrent use.
//
// # Starvation bound
//
// Weight priority alone starves: under a sustained flood of a heavy
// class, a queued light ticket is never granted. The queue therefore
// layers deficit-bounded grants on top of the WeightedEDF order. On
// every grant while two or more classes are backlogged, each
// backlogged class accrues deficit equal to its weight, and the
// granted class pays back the round quantum (the sum of the backlogged
// classes' weights). A class whose deficit reaches the quantum is
// overdue and is granted next — its best ticket in WeightedEDF order —
// ahead of any heavier class. A class backlogged alongside
// classes of total weight Σw therefore waits at most ⌈Σw/w_class⌉
// grants between consecutive grants of its own: with the default
// weights (1/4/16) a Low ticket is granted within 21 grants of the
// flood, no matter how much High traffic keeps arriving.
type Queue struct {
	mu    sync.Mutex
	clock Clock
	h     itemHeap
	seq   uint64
	stats Stats
	// backlog tracks queued-ticket counts and deficits per class; keys
	// exist only while the class has tickets queued.
	backlog map[classKey]*classState
	// perClass accumulates the monotonic per-class counters (Depth is
	// derived from backlog at snapshot time instead).
	perClass map[Priority]*ClassStats
}

// NewQueue builds a grant queue over the clock (nil = time.Now).
func NewQueue(clock Clock) *Queue {
	if clock == nil {
		clock = time.Now
	}
	return &Queue{
		clock:    clock,
		backlog:  map[classKey]*classState{},
		perClass: map[Priority]*ClassStats{},
	}
}

// class returns (creating if needed) the monotonic counter bucket of
// the priority class. Callers hold q.mu.
func (q *Queue) class(p Priority) *ClassStats {
	cs := q.perClass[p]
	if cs == nil {
		cs = &ClassStats{}
		q.perClass[p] = cs
	}
	return cs
}

func keyOf(t Ticket) classKey {
	k := classKey{prio: t.Attrs.Priority}
	if t.Attrs.Weight > 0 {
		k.weight = t.Attrs.Weight
	}
	return k
}

// effWeight is the grant weight one ticket of the class carries: the
// per-tenant override when the key has one, else the class weight.
func effWeight(k classKey) int64 {
	if k.weight > 0 {
		return int64(k.weight)
	}
	return int64(classWeight(k.prio))
}

// backlogAdd/backlogRemove maintain the per-class queued counts; a
// class's deficit dies with its last queued ticket. Callers hold q.mu.
func (q *Queue) backlogAdd(t Ticket) {
	k := keyOf(t)
	st := q.backlog[k]
	if st == nil {
		st = &classState{}
		q.backlog[k] = st
	}
	st.queued++
}

func (q *Queue) backlogRemove(t Ticket) {
	k := keyOf(t)
	if st := q.backlog[k]; st != nil {
		if st.queued--; st.queued <= 0 {
			delete(q.backlog, k)
		}
	}
}

// ShedExpired implements admission control: when the attrs carry a
// hard deadline that has already passed, the request is counted as
// shed and true is returned — the caller must not enqueue or run it.
// Soft deadlines order grants but never shed.
func (q *Queue) ShedExpired(a Attrs) bool {
	if a.Deadline.IsZero() || a.SoftDeadline {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.clock().Before(a.Deadline) {
		return false
	}
	q.stats.Shed++
	q.class(a.Priority).Shed++
	return true
}

// Push enqueues one helper request for the call. Requests for an
// already finished call are dropped (counted stale) rather than queued.
func (q *Queue) Push(a Attrs, call *Call, run func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if call != nil && call.done {
		q.stats.Stale++
		q.class(a.Priority).Stale++
		return
	}
	q.seq++
	it := &item{
		ticket:   Ticket{Attrs: a, Seq: q.seq},
		enqueued: q.clock(),
		call:     call,
		run:      run,
	}
	heap.Push(&q.h, it)
	q.backlogAdd(it.ticket)
	if call != nil {
		call.items = append(call.items, it)
	}
}

// FinishCall marks the call complete and removes its still-queued
// tickets (counted stale): every block of the call is claimed, so
// granting them could only waste a pop, and leaving them queued would
// inflate Depth — which admission control reads as genuine load.
func (q *Queue) FinishCall(c *Call) {
	if c == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	c.done = true
	for _, it := range c.items {
		if it.index >= 0 {
			heap.Remove(&q.h, it.index)
			it.index = -1
			q.backlogRemove(it.ticket)
			q.stats.Stale++
			q.class(it.ticket.Attrs.Priority).Stale++
		}
	}
	c.items = nil
}

// Pop removes and returns the best pending request in WeightedEDF
// order — or, when a lighter class has gone unserved long enough to become
// overdue, that class's best request (see the Queue doc for the bound)
// — discarding stale tickets along the way. It returns nil when the
// queue is empty.
func (q *Queue) Pop() func() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.h.Len() > 0 {
		it, quantum, overrode := q.grantNext()
		it.index = -1
		q.backlogRemove(it.ticket)
		if it.call != nil && it.call.done {
			q.stats.Stale++
			q.class(it.ticket.Attrs.Priority).Stale++
			continue
		}
		q.stats.Granted++
		if overrode {
			q.stats.DeficitGrants++
		}
		wait := q.clock().Sub(it.enqueued)
		q.stats.QueueWait += wait
		cs := q.class(it.ticket.Attrs.Priority)
		cs.Granted++
		cs.QueueWait += wait
		// Attribute the same wait to the request's own counter, so the
		// query that enqueued the ticket can report its personal queue
		// wait alongside the engine-wide sum.
		it.ticket.Attrs.Wait.Add(wait)
		it.ticket.Attrs.Span.Event("pool.grant", wait)
		q.accrue(keyOf(it.ticket), quantum)
		return it.run
	}
	return nil
}

// grantNext selects the next request. The plain path is a heap pop in
// WeightedEDF order; the deficit path activates only when two or more
// classes are simultaneously backlogged — the only situation where
// starvation is possible. It returns the selected item, the round
// quantum in force (0 when the deficit path was inactive), and whether
// an overdue class overrode the WeightedEDF pick. Callers hold q.mu.
func (q *Queue) grantNext() (it *item, quantum int64, overrode bool) {
	if len(q.backlog) < 2 {
		return heap.Pop(&q.h).(*item), 0, false
	}
	for k := range q.backlog {
		quantum += effWeight(k)
	}
	overdueKey, ok := q.overdue(quantum)
	if !ok || keyOf(q.h.items[0].ticket) == overdueKey {
		return heap.Pop(&q.h).(*item), quantum, false
	}
	// The overdue class is not at the heap head: grant its best ticket
	// in WeightedEDF order instead. Linear scan — queue depths are
	// bounded by workers×calls in practice, and the scan runs only on
	// the starvation-relief path.
	best := -1
	for i, cand := range q.h.items {
		if keyOf(cand.ticket) != overdueKey {
			continue
		}
		if best < 0 || (WeightedEDF{}).Less(cand.ticket, q.h.items[best].ticket) {
			best = i
		}
	}
	return heap.Remove(&q.h, best).(*item), quantum, true
}

// overdue returns the backlogged class whose deficit has reached the
// round quantum, if any. Ties (and the pick among several overdue
// classes) resolve deterministically: larger deficit first, then
// smaller weight (the lighter class has waited proportionally longer),
// then smaller priority, then smaller override value. Callers hold
// q.mu.
func (q *Queue) overdue(quantum int64) (classKey, bool) {
	var bestKey classKey
	var bestState *classState
	for k, st := range q.backlog {
		if st.deficit < quantum {
			continue
		}
		if bestState == nil || moreOverdue(st, k, bestState, bestKey) {
			bestKey, bestState = k, st
		}
	}
	return bestKey, bestState != nil
}

func moreOverdue(a *classState, ak classKey, b *classState, bk classKey) bool {
	if a.deficit != b.deficit {
		return a.deficit > b.deficit
	}
	if wa, wb := effWeight(ak), effWeight(bk); wa != wb {
		return wa < wb
	}
	if ak.prio != bk.prio {
		return ak.prio < bk.prio
	}
	return ak.weight < bk.weight
}

// accrue runs the deficit round after a grant: every still-backlogged
// class earns its weight, and the granted class pays back the quantum
// (clamped at zero — credit is relief, not a bankable balance). A
// quantum of zero means the deficit path was inactive for this grant.
// Callers hold q.mu.
func (q *Queue) accrue(granted classKey, quantum int64) {
	if quantum == 0 {
		return
	}
	for k, st := range q.backlog {
		st.deficit += effWeight(k)
	}
	if st := q.backlog[granted]; st != nil {
		if st.deficit -= quantum; st.deficit < 0 {
			st.deficit = 0
		}
	}
}

// Depth returns the number of queued requests (including not yet
// discarded stale tickets).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.h.Len()
}

// Stats returns a snapshot of the counters. The PerClass map is a deep
// copy the caller owns.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Policy = WeightedEDF{}.Name()
	s.Depth = q.h.Len()
	if len(q.perClass) > 0 || len(q.backlog) > 0 {
		s.PerClass = make(map[string]ClassStats, len(q.perClass))
		for p, cs := range q.perClass {
			s.PerClass[p.String()] = *cs
		}
		for k, st := range q.backlog {
			c := s.PerClass[k.prio.String()]
			c.Depth += st.queued
			s.PerClass[k.prio.String()] = c
		}
	}
	return s
}

// itemHeap orders items by WeightedEDF.
type itemHeap struct {
	items []*item
}

func (h *itemHeap) Len() int { return len(h.items) }
func (h *itemHeap) Less(i, j int) bool {
	return WeightedEDF{}.Less(h.items[i].ticket, h.items[j].ticket)
}
func (h *itemHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index, h.items[j].index = i, j
}
func (h *itemHeap) Push(x any) {
	it := x.(*item)
	it.index = len(h.items)
	h.items = append(h.items, it)
}
func (h *itemHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	return it
}
