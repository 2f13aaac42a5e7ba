package fam

import (
	"context"
	"runtime"
	"testing"

	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/utility"
)

// TestPrepSizeExact pins the prep-cache sizers to the real artifact
// sizes: the matrix-dominated instance footprint from
// core.Instance.MemoryFootprint and per-function payloads from
// utility.Footprint, replacing the old static 64 B/func and 8 B/cell
// estimates.
func TestPrepSizeExact(t *testing.T) {
	const sliceHeader = 24

	// Skyline index: exact element bytes.
	if got, want := prepSize(make([]int, 100)), int64(sliceHeader+100*8); got != want {
		t.Fatalf("skyline size = %d, want %d", got, want)
	}

	// Function sets: real weight-vector payloads, not 64 B flat.
	funcs := make([]UtilityFunc, 10)
	for i := range funcs {
		funcs[i] = utility.Linear{W: make([]float64, 3)}
	}
	perFunc := int64(sliceHeader + 3*8) // Footprint of a 3-d Linear
	wantFuncs := int64(sliceHeader) + 10*16 + 10*perFunc
	if got := prepSize(funcs); got != wantFuncs {
		t.Fatalf("funcs size = %d, want %d", got, wantFuncs)
	}
	if utility.Footprint(utility.Linear{W: make([]float64, 1000)}) != sliceHeader+8000 {
		t.Fatal("Linear footprint is not exact")
	}

	// Built instance: the N×n matrix plus the satisfaction/best-point
	// indexes, exactly.
	points := [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}, {0.2, 0.9}}
	in, err := core.NewInstance(points, []utility.Func{
		utility.Linear{W: []float64{0.3, 0.7}},
		utility.Linear{W: []float64{0.9, 0.1}},
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, N := int64(4), int64(2)
	wantIn := sliceHeader + N*n*8 + // cached matrix (flat backing array)
		sliceHeader + N*8 + // satD
		sliceHeader + N*4 // bestD
	if got := in.MemoryFootprint(); got != wantIn {
		t.Fatalf("instance footprint = %d, want %d", got, wantIn)
	}
	p := &prepared{
		candidates: []int{0, 1, 2, 3},
		funcs:      []UtilityFunc{utility.Linear{W: []float64{0.3, 0.7}}, utility.Linear{W: []float64{0.9, 0.1}}},
		in:         in,
	}
	wantPrep := int64(sliceHeader*4) + 4*8 + 2*16 + wantIn
	if got := prepSize(p); got != wantPrep {
		t.Fatalf("prepared size = %d, want %d", got, wantPrep)
	}

	// An engine-served query accounts real bytes in the stats.
	e := newTestEngine(t, engineFixtures(t))
	if _, _, err := e.Select(context.Background(), Query{Dataset: "hotels", K: 3, SampleSize: 50}, Exec{}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.PrepCache.Bytes == 0 {
		t.Fatal("prep cache reports zero bytes after a cold select")
	}
}

// TestAnswerSizeTracksHeap stores 1 000 distinct answers in an
// unbounded result cache: the bytes ResultCache.Bytes counts per answer
// must lie within 20% of the live heap each one adds. GreedyAdd keeps
// the trajectory cache's sighting marks out of the heap growth, and the
// 1-byte prep budget keeps a single instance. Not parallel: the heap is
// the process's.
func TestAnswerSizeTracksHeap(t *testing.T) {
	ds, err := Synthetic(300, 3, Anticorrelated, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{PrepCacheBytes: 1, ResultCacheBytes: -1})
	defer e.Close()
	if err := e.Register("ac", ds, dist); err != nil {
		t.Fatal(err)
	}
	selectSeeds := func(from, to uint64) {
		for s := from; s < to; s++ {
			q := Query{Dataset: "ac", K: 10, Seed: s, SampleSize: 20, Algorithm: GreedyAdd}
			if _, _, err := e.Select(context.Background(), q, Exec{Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const answers = 1000
	selectSeeds(0, 50)
	heap0, bytes0 := liveHeap(), e.Stats().ResultCache.Bytes
	selectSeeds(50, 50+answers)
	heap1, bytes1 := liveHeap(), e.Stats().ResultCache.Bytes
	heap, counted := float64(heap1-heap0)/answers, float64(bytes1-bytes0)/answers
	t.Logf("per answer: %.0f bytes of live heap, %.0f counted", heap, counted)
	if counted < 0.8*heap || counted > 1.2*heap {
		t.Fatalf("answerSize counts %.0f bytes per answer against %.0f of live heap: off by more than 20%%", counted, heap)
	}
}
