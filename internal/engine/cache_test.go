package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// unit sizes every value at one byte, so a byte budget of n holds n
// values.
func unit(any) int64 { return 1 }

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(2, unit)
	ctx := context.Background()
	fill := func(v string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return v, nil }
	}

	v, hit, err := c.Do(ctx, "a", fill("A"))
	if err != nil || hit || v.(string) != "A" {
		t.Fatalf("first Do = (%v, %v, %v)", v, hit, err)
	}
	v, hit, err = c.Do(ctx, "a", fill("ignored"))
	if err != nil || !hit || v.(string) != "A" {
		t.Fatalf("second Do = (%v, %v, %v), want cached A", v, hit, err)
	}

	// Fill b, touch a, fill c -> b is the LRU victim.
	if _, _, err := c.Do(ctx, "b", fill("B")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(ctx, "a", fill("ignored")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(ctx, "c", fill("C")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived eviction")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 2 || s.MaxBytes != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCacheSingleflight: concurrent Do calls for one absent key must run
// the fill exactly once, with every other caller coalescing onto it. The
// fill blocks until all callers have arrived, so the coalesced count is
// deterministic.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0, nil)
	const callers = 8
	var fills atomic.Int64
	arrived := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func(context.Context) (any, error) {
				fills.Add(1)
				<-arrived // hold the fill open until every caller has called Do
				return 42, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if v.(int) != 42 {
				t.Errorf("v = %v", v)
			}
		}()
	}
	// Wait until all callers are either the filler or coalesced waiters,
	// then release the fill.
	for {
		s := c.Stats()
		if s.Misses+s.Coalesced == callers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(arrived) })
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", s, callers-1)
	}
}

// TestCacheErrorNotStored: a failed fill must not poison the cache; the
// next Do retries.
func TestCacheErrorNotStored(t *testing.T) {
	c := NewCache(0, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, "k", func(context.Context) (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.Do(ctx, "k", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || hit || v.(string) != "ok" {
		t.Fatalf("retry = (%v, %v, %v)", v, hit, err)
	}
	s := c.Stats()
	if s.Errors != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCacheFillPanicContained: a fill that panics must not kill the
// process. The requester and every coalesced waiter get an error wrapping
// ErrFillPanic (and the panic value, when it is an error), nothing is
// stored, and the next Do on the key refills and stores.
func TestCacheFillPanicContained(t *testing.T) {
	c := NewCache(0, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	const callers = 3
	release := make(chan struct{})
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, _, err := c.Do(ctx, "k", func(context.Context) (any, error) {
				<-release
				panic(boom)
			})
			errs <- err
		}()
	}
	// Hold the fill open until the other callers have coalesced onto it.
	for {
		s := c.Stats()
		if s.Misses+s.Coalesced == callers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrFillPanic) || !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want ErrFillPanic wrapping boom", i, err)
		}
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a panicked fill was stored")
	}
	// A panic value that is not an error is still reported.
	if _, _, err := c.Do(ctx, "s", func(context.Context) (any, error) { panic("text") }); !errors.Is(err, ErrFillPanic) {
		t.Fatalf("string panic: err = %v", err)
	}
	v, hit, err := c.Do(ctx, "k", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || hit || v.(string) != "ok" {
		t.Fatalf("refill = (%v, %v, %v)", v, hit, err)
	}
	if v, ok := c.Get("k"); !ok || v.(string) != "ok" {
		t.Fatalf("refill not stored: (%v, %v)", v, ok)
	}
	s := c.Stats()
	if s.Errors != 2 || s.Misses != 3 || s.Coalesced != callers-1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 errors, 3 misses, %d coalesced, 1 entry", s, callers-1)
	}
}

// TestCacheCanceledWaiterFillSurvives: a requester that gives up waiting
// gets its context error, but the detached fill still completes and is
// stored for the next arrival.
func TestCacheCanceledWaiterFillSurvives(t *testing.T) {
	c := NewCache(0, nil)
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func(context.Context) (any, error) {
			<-release
			return "late", nil
		})
		done <- err
	}()
	// Let the fill start, abandon the wait, then release the fill.
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v", err)
	}
	close(release)

	// The fill was detached: it must land in the cache.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := c.Get("k"); ok {
			if v.(string) != "late" {
				t.Fatalf("v = %v", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached fill never stored its value")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheConcurrentDistinctKeys: hammer the cache with overlapping keys
// under -race.
func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(16, unit)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				v, _, err := c.Do(context.Background(), key, func(context.Context) (any, error) {
					return key, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != key {
					t.Errorf("key %s got %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheByteBudget: the byte budget evicts LRU entries by Size, and
// a single oversized entry is kept (dropping it would refill forever)
// while everything else yields.
func TestCacheByteBudget(t *testing.T) {
	c := NewCache(100, func(v any) int64 { return v.(int64) })
	ctx := context.Background()
	put := func(key string, size int64) {
		t.Helper()
		if _, _, err := c.Do(ctx, key, func(context.Context) (any, error) { return size, nil }); err != nil {
			t.Fatal(err)
		}
	}

	put("a", 40)
	put("b", 40)
	if s := c.Stats(); s.Bytes != 80 || s.Entries != 2 || s.MaxBytes != 100 {
		t.Fatalf("stats = %+v", s)
	}
	// 40+40+40 > 100: the LRU entry "a" goes.
	put("c", 40)
	if _, ok := c.Get("a"); ok {
		t.Fatal("LRU entry survived the byte budget")
	}
	if s := c.Stats(); s.Bytes != 80 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// An oversized entry evicts everything else but is itself kept.
	put("huge", 500)
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 500 {
		t.Fatalf("stats after oversized = %+v", s)
	}
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversized entry must be kept")
	}
}

// TestDoAdmittedDoorkeeper: a key's first sighting marks it and fills
// nothing; the second fills and stores; the third hits.
func TestDoAdmittedDoorkeeper(t *testing.T) {
	c := NewCache(100, func(v any) int64 { return int64(len(v.(string))) })
	ctx := context.Background()
	var fills int
	fill := func(context.Context) (any, error) { fills++; return "value", nil }

	v, hit, admitted, err := c.DoAdmitted(ctx, "k", fill)
	if v != nil || hit || admitted || err != nil || fills != 0 {
		t.Fatalf("first sighting = (%v, %v, %v, %v) after %d fills", v, hit, admitted, err, fills)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get returned a sighting mark")
	}
	if s := c.Stats(); s.Rejected != 1 || s.Entries != 0 || s.Bytes != 0 || s.Misses != 0 {
		t.Fatalf("after the first sighting: %+v", s)
	}
	v, hit, admitted, err = c.DoAdmitted(ctx, "k", fill)
	if v != "value" || hit || !admitted || err != nil || fills != 1 {
		t.Fatalf("second sighting = (%v, %v, %v, %v) after %d fills", v, hit, admitted, err, fills)
	}
	v, hit, admitted, err = c.DoAdmitted(ctx, "k", fill)
	if v != "value" || !hit || !admitted || err != nil || fills != 1 {
		t.Fatalf("third sighting = (%v, %v, %v, %v) after %d fills", v, hit, admitted, err, fills)
	}
	s := c.Stats()
	if s.Rejected != 1 || s.Misses != 1 || s.Hits != 1 || s.Entries != 1 || s.Bytes != 5 {
		t.Fatalf("stats = %+v", s)
	}
	// Do never mistakes a sighting mark for a value.
	if _, _, _, err := c.DoAdmitted(ctx, "m", fill); err != nil {
		t.Fatal(err)
	}
	if v, hit, err := c.Do(ctx, "m", fill); v != "value" || hit || err != nil {
		t.Fatalf("Do over a sighting mark = (%v, %v, %v)", v, hit, err)
	}
}

// TestDoAdmittedMarksNeverEvictValues: the sighting marks are kept apart
// from the stored values, so more first sightings than maxSightings
// leave a stored value in place, and the oldest mark is the one
// forgotten.
func TestDoAdmittedMarksNeverEvictValues(t *testing.T) {
	c := NewCache(0, nil)
	ctx := context.Background()
	fill := func(context.Context) (any, error) { return "value", nil }
	for range 2 {
		if _, _, _, err := c.DoAdmitted(ctx, "stored", fill); err != nil {
			t.Fatal(err)
		}
	}
	for i := range maxSightings + 1 {
		if _, _, admitted, err := c.DoAdmitted(ctx, fmt.Sprint("once", i), fill); admitted || err != nil {
			t.Fatalf("first sighting %d = (admitted %v, %v)", i, admitted, err)
		}
	}
	if v, ok := c.Get("stored"); !ok || v != "value" {
		t.Fatalf("stored value lost to first sightings: (%v, %v)", v, ok)
	}
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 0 || s.Rejected != maxSightings+2 {
		t.Fatalf("stats = %+v", s)
	}
	// The newest marks survive; the oldest was dropped beyond maxSightings.
	if _, _, admitted, _ := c.DoAdmitted(ctx, fmt.Sprint("once", maxSightings), fill); !admitted {
		t.Fatal("the newest mark was forgotten")
	}
	if _, _, admitted, _ := c.DoAdmitted(ctx, "once0", fill); admitted {
		t.Fatal("the oldest mark outlived maxSightings")
	}
}

// TestDoAdmittedCanceledFill: the admitted fill runs under the caller's
// context; a canceled fill stores nothing and keeps the mark, so the
// next lookup fills again.
func TestDoAdmittedCanceledFill(t *testing.T) {
	c := NewCache(0, nil)
	bg := context.Background()
	if _, _, _, err := c.DoAdmitted(bg, "k", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, _, admitted, err := c.DoAdmitted(ctx, "k", func(ctx context.Context) (any, error) {
		return nil, ctx.Err()
	})
	if !admitted || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fill = (admitted %v, %v)", admitted, err)
	}
	if s := c.Stats(); s.Errors != 1 || s.Entries != 0 || s.Rejected != 1 {
		t.Fatalf("after the canceled fill: %+v", s)
	}
	v, hit, admitted, err := c.DoAdmitted(bg, "k", func(context.Context) (any, error) { return 7, nil })
	if v != 7 || hit || !admitted || err != nil {
		t.Fatalf("refill = (%v, %v, %v, %v)", v, hit, admitted, err)
	}
}

// TestDoAdmittedCoalesces: arrivals during an admitted fill wait for it
// instead of filling again.
func TestDoAdmittedCoalesces(t *testing.T) {
	c := NewCache(0, nil)
	ctx := context.Background()
	if _, _, _, err := c.DoAdmitted(ctx, "k", nil); err != nil {
		t.Fatal(err)
	}
	const callers = 6
	var fills atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, callers)
	fill := func(context.Context) (any, error) {
		fills.Add(1)
		close(started)
		<-release
		return "v", nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, _, _ = c.DoAdmitted(ctx, "k", fill)
	}()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _, _ = c.DoAdmitted(ctx, "k", fill)
		}(i)
	}
	for c.Stats().Coalesced < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("%d fills, want 1", fills.Load())
	}
	for i, r := range results {
		if r != "v" {
			t.Fatalf("caller %d got %v", i, r)
		}
	}
}
