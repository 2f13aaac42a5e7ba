package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fixedClock returns a Clock pinned to t0; EDF ordering and shed
// decisions under it are fully deterministic.
func fixedClock(t0 time.Time) Clock {
	return func() time.Time { return t0 }
}

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// popOrder drains the queue and reports the labels of granted requests
// in grant order.
func popOrder(t *testing.T, q *Queue, labels map[*int]string) []string {
	t.Helper()
	var got []string
	for {
		run := q.Pop()
		if run == nil {
			return got
		}
		run()
		for k, v := range labels {
			if *k == 1 {
				*k = 2
				got = append(got, v)
			}
		}
	}
}

// push enqueues a request that flips its marker 0→1 when granted.
func push(q *Queue, a Attrs, labels map[*int]string, name string) {
	marker := new(int)
	labels[marker] = name
	q.Push(a, nil, func() { *marker = 1 })
}

// TestWeightedEDFGrantOrder pins the full grant order: class weight
// first, earliest deadline within a class (no
// deadline sorts last), arrival order as the final tie-break — all
// deterministic under a fixed clock.
func TestWeightedEDFGrantOrder(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	labels := map[*int]string{}

	// Arrival order is deliberately adversarial: low first, urgent last.
	push(q, Attrs{Priority: Low}, labels, "low-first")
	push(q, Attrs{Priority: Normal, Deadline: t0.Add(5 * time.Second)}, labels, "normal-5s")
	push(q, Attrs{Priority: Normal}, labels, "normal-nodeadline")
	push(q, Attrs{Priority: Low, Deadline: t0.Add(time.Second)}, labels, "low-1s")
	push(q, Attrs{Priority: High}, labels, "high-nodeadline")
	push(q, Attrs{Priority: Normal, Deadline: t0.Add(2 * time.Second)}, labels, "normal-2s")
	push(q, Attrs{Priority: High, Deadline: t0.Add(10 * time.Second)}, labels, "high-10s")

	want := []string{
		"high-10s",          // highest class, has a deadline
		"high-nodeadline",   // highest class, no deadline
		"normal-2s",         // normal class, earliest deadline
		"normal-5s",         // normal class, later deadline
		"normal-nodeadline", // normal class, no deadline
		"low-1s",            // low class, deadline beats none
		"low-first",         // low class, no deadline
	}
	got := popOrder(t, q, labels)
	if len(got) != len(want) {
		t.Fatalf("granted %d requests, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
	if s := q.Stats(); s.Granted != 7 || s.Policy != "weighted-edf" {
		t.Fatalf("stats = %+v, want 7 grants under weighted-edf", s)
	}
}

// TestWeightedEDFEqualWeightsInterleave: requests of different classes
// given equal per-request weight overrides fall through to EDF, then
// arrival order.
func TestWeightedEDFEqualWeightsInterleave(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	labels := map[*int]string{}
	push(q, Attrs{Priority: High, Weight: 3}, labels, "high-none")
	push(q, Attrs{Priority: Low, Weight: 3, Deadline: t0.Add(time.Second)}, labels, "low-1s")
	push(q, Attrs{Priority: Normal, Weight: 3, Deadline: t0.Add(3 * time.Second)}, labels, "normal-3s")
	want := []string{"low-1s", "normal-3s", "high-none"}
	got := popOrder(t, q, labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestZeroAttrsDegeneratesToFIFO: without scheduling attributes the
// grant order is exact arrival order — pre-scheduling behavior.
func TestZeroAttrsDegeneratesToFIFO(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	labels := map[*int]string{}
	for _, name := range []string{"a", "b", "c", "d"} {
		push(q, Attrs{}, labels, name)
	}
	got := popOrder(t, q, labels)
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestShedExpired pins admission control under an injectable clock: a
// deadline in the past sheds, the present moment sheds (the deadline is
// no longer meetable), a future deadline admits.
func TestShedExpired(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	if q.ShedExpired(Attrs{}) {
		t.Fatal("deadline-less request was shed")
	}
	if q.ShedExpired(Attrs{Deadline: t0.Add(time.Nanosecond)}) {
		t.Fatal("future deadline was shed")
	}
	if !q.ShedExpired(Attrs{Deadline: t0.Add(-time.Second)}) {
		t.Fatal("expired deadline was admitted")
	}
	if !q.ShedExpired(Attrs{Deadline: t0}) {
		t.Fatal("deadline exactly now was admitted")
	}
	if s := q.Stats(); s.Shed != 2 {
		t.Fatalf("shed count = %d, want 2", s.Shed)
	}
}

// TestStaleTicketsDiscarded: finishing a call removes its still-queued
// tickets immediately — they are never granted, and they stop counting
// against the queue depth that admission control reads.
func TestStaleTicketsDiscarded(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	call := &Call{}
	ran := 0
	q.Push(Attrs{}, call, func() { ran++ })
	q.Push(Attrs{}, call, func() { ran++ })
	live := 0
	q.Push(Attrs{Priority: Low}, nil, func() { live++ })
	q.FinishCall(call)
	if q.Depth() != 1 {
		t.Fatalf("depth = %d after FinishCall, want 1 (only the live ticket)", q.Depth())
	}
	// A late push for a finished call is dropped, not queued.
	q.Push(Attrs{}, call, func() { ran++ })
	if q.Depth() != 1 {
		t.Fatalf("depth = %d after late push, want 1", q.Depth())
	}
	for {
		run := q.Pop()
		if run == nil {
			break
		}
		run()
	}
	if ran != 0 || live != 1 {
		t.Fatalf("stale ran %d times, live %d times; want 0 and 1", ran, live)
	}
	s := q.Stats()
	if s.Stale != 3 || s.Granted != 1 || s.Depth != 0 {
		t.Fatalf("stats = %+v, want 3 stale, 1 granted, depth 0", s)
	}
}

// TestContextCarrier round-trips attrs through a context and pins the
// default-attachment rule: explicit attrs always win over defaults.
func TestContextCarrier(t *testing.T) {
	base := context.Background()
	if a := FromContext(base); !a.zero() {
		t.Fatalf("bare context carries attrs %+v", a)
	}
	attrs := Attrs{Priority: High, Deadline: t0}
	ctx := NewContext(base, attrs)
	if got := FromContext(ctx); got != attrs {
		t.Fatalf("FromContext = %+v, want %+v", got, attrs)
	}
	// A default must not override explicit attrs...
	d := ContextWithDefault(ctx, Attrs{Priority: Low})
	if got := FromContext(d); got != attrs {
		t.Fatalf("default overrode explicit attrs: %+v", got)
	}
	// ...but attaches to a bare context...
	d = ContextWithDefault(base, Attrs{Priority: Low})
	if got := FromContext(d); got.Priority != Low {
		t.Fatalf("default not attached: %+v", got)
	}
	// ...and a zero default attaches nothing.
	if d := ContextWithDefault(base, Attrs{}); d != base {
		t.Fatal("zero default wrapped the context")
	}
}

// TestQueueWaitAccounting: queue wait is measured between enqueue and
// grant on the injected clock.
func TestQueueWaitAccounting(t *testing.T) {
	now := t0
	q := NewQueue(func() time.Time { return now })
	q.Push(Attrs{}, nil, func() {})
	now = now.Add(250 * time.Millisecond)
	if run := q.Pop(); run == nil {
		t.Fatal("no grant")
	}
	if s := q.Stats(); s.QueueWait != 250*time.Millisecond {
		t.Fatalf("queue wait = %v, want 250ms", s.QueueWait)
	}
}

// TestSoftDeadlineOrdersButNeverSheds: a soft deadline (detached cache
// fills) participates in EDF ordering exactly like a hard one but is
// exempt from admission shedding even when expired.
func TestSoftDeadlineOrdersButNeverSheds(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	if q.ShedExpired(Attrs{Deadline: t0.Add(-time.Hour), SoftDeadline: true}) {
		t.Fatal("expired soft deadline was shed")
	}
	labels := map[*int]string{}
	push(q, Attrs{Deadline: t0.Add(9 * time.Second)}, labels, "hard-9s")
	push(q, Attrs{Deadline: t0.Add(3 * time.Second), SoftDeadline: true}, labels, "soft-3s")
	push(q, Attrs{}, labels, "none")
	want := []string{"soft-3s", "hard-9s", "none"}
	got := popOrder(t, q, labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestErrShedWrapsDeadlineExceeded: an escaped pool-level shed must
// classify as a deadline failure for layers that map errors to
// statuses.
func TestErrShedWrapsDeadlineExceeded(t *testing.T) {
	if !errors.Is(ErrShed, context.DeadlineExceeded) {
		t.Fatal("ErrShed does not wrap context.DeadlineExceeded")
	}
}

// TestQueueWaitAttributedPerRequest: grants add their wait both to the
// queue-wide sum and to the request's own WaitCounter, so a serving
// layer can report per-query queue wait. Requests without a counter
// still count in the queue-wide sum only.
func TestQueueWaitAttributedPerRequest(t *testing.T) {
	now := t0
	q := NewQueue(func() time.Time { return now })
	var mine, other WaitCounter
	q.Push(Attrs{Wait: &mine}, nil, func() {})
	q.Push(Attrs{Wait: &other}, nil, func() {})
	q.Push(Attrs{}, nil, func() {}) // counter-less legacy request
	now = now.Add(100 * time.Millisecond)
	if run := q.Pop(); run == nil { // grants the first push (FIFO at equal attrs)
		t.Fatal("no grant")
	}
	now = now.Add(150 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if run := q.Pop(); run == nil {
			t.Fatalf("grant %d missing", i)
		}
	}
	if got := mine.Load(); got != 100*time.Millisecond {
		t.Fatalf("mine = %v, want 100ms", got)
	}
	if got := other.Load(); got != 250*time.Millisecond {
		t.Fatalf("other = %v, want 250ms", got)
	}
	// Queue-wide sum covers all three grants: 100 + 250 + 250.
	if s := q.Stats(); s.QueueWait != 600*time.Millisecond {
		t.Fatalf("queue-wide wait = %v, want 600ms", s.QueueWait)
	}
}

// TestWaitCounterNilSafe: a nil counter is a no-op sink, so attribution
// never needs nil checks at the grant site.
func TestWaitCounterNilSafe(t *testing.T) {
	var w *WaitCounter
	w.Add(time.Second)
	if w.Load() != 0 {
		t.Fatal("nil WaitCounter accumulated")
	}
	var attrs Attrs
	if !attrs.zero() {
		t.Fatal("zero Attrs with nil Wait must be zero")
	}
	attrs.Wait = new(WaitCounter)
	if attrs.zero() {
		t.Fatal("Attrs carrying a wait counter must count as a scheduling signal")
	}
}

// TestDeficitStarvationBound is the headline regression test of the
// anti-starvation machinery: with a frozen clock and an unbounded
// sustained flood of High tickets, a queued Low ticket must be granted
// within the documented ⌈Σw/w_low⌉+1 grant bound. Against the old pure
// weight ordering the Low ticket is never granted — this test would
// spin to the bound and fail.
func TestDeficitStarvationBound(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	granted := []string{}
	pushClass := func(name string, p Priority) {
		q.Push(Attrs{Priority: p}, nil, func() { granted = append(granted, name) })
	}

	pushClass("low", Low)
	for i := 0; i < 3; i++ {
		pushClass("high", High)
	}

	// Σw over the backlogged classes is 1+16=17; the Low class accrues
	// +1 per grant, so it is overdue after 17 grants and granted on the
	// 18th at the latest.
	const bound = 18
	lowAt := 0
	for grant := 1; grant <= bound; grant++ {
		run := q.Pop()
		if run == nil {
			t.Fatalf("queue empty at grant %d", grant)
		}
		run()
		if granted[len(granted)-1] == "low" {
			lowAt = grant
			break
		}
		// Sustain the flood: High backlog never drains.
		pushClass("high", High)
	}
	if lowAt == 0 {
		t.Fatalf("low ticket starved: not granted within the %d-grant bound under a sustained High flood", bound)
	}
	if lowAt != bound {
		// The deficit schedule is fully deterministic under a frozen
		// clock: the low grant lands exactly on the bound.
		t.Fatalf("low granted at grant %d, want exactly %d", lowAt, bound)
	}

	s := q.Stats()
	if s.DeficitGrants != 1 {
		t.Fatalf("DeficitGrants = %d, want 1 (the single starvation-relief grant)", s.DeficitGrants)
	}
	if got := s.PerClass["low"]; got.Granted != 1 {
		t.Fatalf("PerClass[low].Granted = %d, want 1", got.Granted)
	}
	if got := s.PerClass["high"]; got.Granted != uint64(bound-1) {
		t.Fatalf("PerClass[high].Granted = %d, want %d", got.Granted, bound-1)
	}
}

// TestDeficitStarvationBoundThreeClasses: the bound holds with all
// three classes backlogged — quantum 21, so Low is overdue after 21
// grants; Normal (weight 4) after ⌈21/4⌉=6 accruals.
func TestDeficitStarvationBoundThreeClasses(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	granted := []string{}
	pushClass := func(name string, p Priority) {
		q.Push(Attrs{Priority: p}, nil, func() { granted = append(granted, name) })
	}
	pushClass("low", Low)
	for i := 0; i < 3; i++ {
		pushClass("normal", Normal)
		pushClass("high", High)
	}

	const bound = 22 // ⌈(1+4+16)/1⌉ + 1
	lowAt, normalAt := 0, 0
	for grant := 1; grant <= bound; grant++ {
		run := q.Pop()
		if run == nil {
			t.Fatalf("queue empty at grant %d", grant)
		}
		run()
		switch granted[len(granted)-1] {
		case "low":
			lowAt = grant
		case "normal":
			if normalAt == 0 {
				normalAt = grant
			}
			pushClass("normal", Normal)
		default:
			pushClass("high", High)
		}
		if lowAt != 0 {
			break
		}
	}
	if lowAt == 0 || lowAt > bound {
		t.Fatalf("low granted at %d, want within %d", lowAt, bound)
	}
	if normalAt == 0 || normalAt > 7 {
		t.Fatalf("normal first granted at %d, want within 7 (⌈21/4⌉+1)", normalAt)
	}
}

// TestDeficitInactiveSingleClass: with only one class ever backlogged
// the deficit machinery must stay fully inactive — grant order is the
// pure WeightedEDF order and DeficitGrants stays zero. This is the guard
// that keeps every bit-determinism suite byte-identical.
func TestDeficitInactiveSingleClass(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	labels := map[*int]string{}
	push(q, Attrs{Priority: High, Deadline: t0.Add(9 * time.Second)}, labels, "9s")
	push(q, Attrs{Priority: High, Deadline: t0.Add(3 * time.Second)}, labels, "3s")
	push(q, Attrs{Priority: High, Deadline: t0.Add(6 * time.Second)}, labels, "6s")
	got := popOrder(t, q, labels)
	want := []string{"3s", "6s", "9s"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
	if s := q.Stats(); s.DeficitGrants != 0 {
		t.Fatalf("DeficitGrants = %d with a single backlogged class, want 0", s.DeficitGrants)
	}
}

// TestPerTenantWeightOverride: Attrs.Weight lets one tenant outrank its
// class without a new Priority — a Normal request at Weight 32 is
// granted before default High (weight 16), and default Normal traffic
// still cannot be starved by the heavy tenant thanks to the override
// class accruing its own deficit.
func TestPerTenantWeightOverride(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	labels := map[*int]string{}
	push(q, Attrs{Priority: Normal}, labels, "normal-default")
	push(q, Attrs{Priority: High}, labels, "high")
	push(q, Attrs{Priority: Normal, Weight: 32}, labels, "tenant-32")
	got := popOrder(t, q, labels)
	want := []string{"tenant-32", "high", "normal-default"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}

	// A sustained flood from the weight-32 tenant cannot starve default
	// Normal: quantum 4+32=36, Normal overdue after 9 grants.
	q2 := NewQueue(fixedClock(t0))
	granted := []string{}
	pushW := func(name string, a Attrs) {
		q2.Push(a, nil, func() { granted = append(granted, name) })
	}
	pushW("normal", Attrs{Priority: Normal})
	for i := 0; i < 3; i++ {
		pushW("tenant", Attrs{Priority: Normal, Weight: 32})
	}
	const bound = 10 // ⌈36/4⌉ + 1
	normalAt := 0
	for grant := 1; grant <= bound; grant++ {
		run := q2.Pop()
		if run == nil {
			t.Fatalf("queue empty at grant %d", grant)
		}
		run()
		if granted[len(granted)-1] == "normal" {
			normalAt = grant
			break
		}
		pushW("tenant", Attrs{Priority: Normal, Weight: 32})
	}
	if normalAt == 0 {
		t.Fatalf("default-normal ticket starved by weight-override tenant flood (bound %d)", bound)
	}
}

// TestPerClassStatsAccounting: the per-class counters partition the
// queue-wide ones across grant, shed, and stale outcomes.
func TestPerClassStatsAccounting(t *testing.T) {
	clock := fixedClock(t0)
	q := NewQueue(clock)

	// One granted High, one granted Low.
	q.Push(Attrs{Priority: High}, nil, func() {})
	q.Push(Attrs{Priority: Low}, nil, func() {})
	// One shed Low (hard deadline already passed).
	if !q.ShedExpired(Attrs{Priority: Low, Deadline: t0.Add(-time.Second)}) {
		t.Fatal("expired deadline not shed")
	}
	// One stale Normal (its call finishes before any pop).
	call := &Call{}
	q.Push(Attrs{Priority: Normal}, call, func() { t.Fatal("stale ticket ran") })
	q.FinishCall(call)

	for q.Pop() != nil {
	}
	s := q.Stats()
	if s.Granted != 2 || s.Stale != 1 || s.Shed != 1 {
		t.Fatalf("queue-wide counters: %+v", s)
	}
	if got := s.PerClass["high"]; got.Granted != 1 || got.Shed != 0 || got.Stale != 0 {
		t.Fatalf("PerClass[high] = %+v", got)
	}
	if got := s.PerClass["low"]; got.Granted != 1 || got.Shed != 1 {
		t.Fatalf("PerClass[low] = %+v", got)
	}
	if got := s.PerClass["normal"]; got.Stale != 1 || got.Granted != 0 {
		t.Fatalf("PerClass[normal] = %+v", got)
	}
	var granted, stale, shed uint64
	for _, cs := range s.PerClass {
		granted += cs.Granted
		stale += cs.Stale
		shed += cs.Shed
	}
	if granted != s.Granted || stale != s.Stale || shed != s.Shed {
		t.Fatalf("per-class sums (%d/%d/%d) do not partition queue-wide (%d/%d/%d)",
			granted, stale, shed, s.Granted, s.Stale, s.Shed)
	}
}

// TestPerClassDepthSnapshot: Depth in the per-class view counts only
// currently queued tickets and sums to the queue-wide Depth.
func TestPerClassDepthSnapshot(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	q.Push(Attrs{Priority: High}, nil, func() {})
	q.Push(Attrs{Priority: High}, nil, func() {})
	q.Push(Attrs{Priority: Low}, nil, func() {})
	s := q.Stats()
	if s.Depth != 3 || s.PerClass["high"].Depth != 2 || s.PerClass["low"].Depth != 1 {
		t.Fatalf("depth snapshot: %+v", s)
	}
	q.Pop()
	s = q.Stats()
	if s.Depth != 2 || s.PerClass["high"].Depth != 1 {
		t.Fatalf("depth after pop: %+v", s)
	}
}

// TestPopDefensiveStaleBranch exercises Pop's stale skip directly: a
// call marked done without FinishCall's heap sweep (the window a
// concurrent finisher can leave) must be discarded by Pop, counted
// stale — never run, never counted granted.
func TestPopDefensiveStaleBranch(t *testing.T) {
	q := NewQueue(fixedClock(t0))
	call := &Call{}
	q.Push(Attrs{Priority: Low}, call, func() { t.Fatal("stale ticket ran") })
	q.mu.Lock()
	call.done = true // simulate FinishCall racing ahead of its sweep
	q.mu.Unlock()
	if run := q.Pop(); run != nil {
		t.Fatal("Pop returned a stale ticket")
	}
	s := q.Stats()
	if s.Stale != 1 || s.Granted != 0 || s.Depth != 0 {
		t.Fatalf("stale accounting: %+v", s)
	}
	if got := s.PerClass["low"]; got.Stale != 1 || got.Depth != 0 {
		t.Fatalf("PerClass[low] = %+v", got)
	}
}

// TestPerClassStaleAccountingConcurrent hammers FinishCall against
// concurrent Pops under -race and pins the accounting invariant: every
// pushed ticket ends exactly once as granted or stale, Depth() never
// counts removed tickets, and the per-class counters partition the
// totals.
func TestPerClassStaleAccountingConcurrent(t *testing.T) {
	q := NewQueue(nil)
	const calls = 60
	const perCall = 4
	classes := []Priority{Low, Normal, High}

	var executed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Poppers race FinishCall for every ticket.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if run := q.Pop(); run != nil {
					run()
					continue
				}
				select {
				case <-stop:
					// One last drain pass: a ticket granted here must
					// still run, or granted and executed drift apart.
					run := q.Pop()
					if run == nil {
						return
					}
					run()
				default:
				}
			}
		}()
	}

	for i := 0; i < calls; i++ {
		call := &Call{}
		for j := 0; j < perCall; j++ {
			q.Push(Attrs{Priority: classes[(i+j)%len(classes)]}, call, func() { executed.Add(1) })
		}
		// Even calls finish immediately — their unpopped tickets must be
		// swept stale; odd calls are left live for the poppers.
		if i%2 == 0 {
			q.FinishCall(call)
		}
	}
	close(stop)
	wg.Wait()

	s := q.Stats()
	total := uint64(calls * perCall)
	if s.Granted+s.Stale != total {
		t.Fatalf("granted %d + stale %d != pushed %d", s.Granted, s.Stale, total)
	}
	if s.Granted != uint64(executed.Load()) {
		t.Fatalf("granted %d != executed %d", s.Granted, executed.Load())
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("Depth() = %d after drain, want 0 (removed tickets still counted?)", d)
	}
	var granted, stale uint64
	for _, cs := range s.PerClass {
		granted += cs.Granted
		stale += cs.Stale
		if cs.Depth != 0 {
			t.Fatalf("per-class depth nonzero after drain: %+v", s.PerClass)
		}
	}
	if granted != s.Granted || stale != s.Stale {
		t.Fatalf("per-class sums (%d/%d) do not partition totals (%d/%d)", granted, stale, s.Granted, s.Stale)
	}
}

// TestPriorityString pins the class names used as stats keys and
// metric labels.
func TestPriorityString(t *testing.T) {
	cases := map[Priority]string{Low: "low", Normal: "normal", High: "high", Priority(3): "priority(3)"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Fatalf("Priority(%d).String() = %q, want %q", p, got, want)
		}
	}
}
