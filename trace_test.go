package fam

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/regretlab/fam/internal/obs"
)

var updateTraceShape = flag.Bool("update-trace-shape", false,
	"rewrite testdata/trace_shape*.golden from the current span structure")

// The span tree of a fixed (Query, Exec) is structurally deterministic:
// identical names, nesting, counts, and attributes at any worker count —
// only durations and pool-grant events vary, and Shape excludes both.
// trace_shape.golden pins the Engine's cold (cache-filling) and warm
// (result-cache hit) shapes; trace_shape_oneshot.golden pins a one-shot
// Select with the coreset prepass on, whose prepare span nests the
// skyline, buildFuncs, coreset and assemble stages.
// `go test -run TraceSpanShape -update-trace-shape .` regenerates both
// after an intentional structure change.
func TestTraceSpanShapeGolden(t *testing.T) {
	q := Query{Dataset: "hotels", K: 5, Seed: 9, SampleSize: 120}
	shapes := map[int]string{}
	oneShot := map[int]string{}
	var warm string
	for _, workers := range []int{1, 8} {
		fixtures := engineFixtures(t)
		oneShotQ := Query{Data: fixtures[0].ds, Dist: fixtures[0].dist, K: 5, Seed: 9, SampleSize: 120, Coreset: true}
		_, tel, err := Select(TraceContext(context.Background(), ""), oneShotQ, Exec{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		oneShot[workers] = tel.Trace.Shape()
		e := NewEngine(EngineConfig{Workers: workers})
		for _, f := range fixtures {
			if err := e.Register(f.name, f.ds, f.dist); err != nil {
				t.Fatal(err)
			}
		}
		exec := Exec{Parallelism: workers}
		res, tel, err := e.Select(TraceContext(context.Background(), ""), q, exec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || tel.Trace == nil {
			t.Fatalf("workers=%d: cold select: cached=%t trace=%v", workers, res.Cached, tel.Trace)
		}
		shapes[workers] = tel.Trace.Shape()
		if workers == 1 {
			res2, tel2, err := e.Select(TraceContext(context.Background(), ""), q, exec)
			if err != nil {
				t.Fatal(err)
			}
			if !res2.Cached || tel2.Trace == nil {
				t.Fatalf("warm select: cached=%t trace=%v", res2.Cached, tel2.Trace)
			}
			warm = tel2.Trace.Shape()
		}
		e.Close()
	}
	if shapes[1] != shapes[8] {
		t.Fatalf("span shape varies with worker count:\n-- workers 1 --\n%s-- workers 8 --\n%s", shapes[1], shapes[8])
	}
	if oneShot[1] != oneShot[8] {
		t.Fatalf("one-shot span shape varies with worker count:\n-- workers 1 --\n%s-- workers 8 --\n%s", oneShot[1], oneShot[8])
	}
	checkTraceGolden(t, "trace_shape.golden", "-- cold --\n"+shapes[1]+"-- warm --\n"+warm)
	checkTraceGolden(t, "trace_shape_oneshot.golden", oneShot[1])
}

// checkTraceGolden compares a rendered span shape with testdata/name,
// rewriting the file first under -update-trace-shape.
func checkTraceGolden(t *testing.T, name, golden string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateTraceShape {
		if err := os.WriteFile(path, []byte(golden), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-trace-shape to generate)", err)
	}
	if golden != string(want) {
		t.Fatalf("span shape drifted from %s:\n-- got --\n%s\n-- want --\n%s", name, golden, want)
	}
}

// The telemetry replay contract: a cold call reports its own execution
// with no Replay; a result-cache hit reports its own (near-zero)
// execution with the filler's telemetry under Replay; traces are never
// replayed from the cache — each call's Trace is its own, and an
// untraced call has none.
func TestTraceIDReplayTelemetry(t *testing.T) {
	e := newTestEngine(t, engineFixtures(t))
	q := Query{Dataset: "hotels", K: 4, Seed: 3, SampleSize: 100}

	traceID := strings.Repeat("ab", 16)
	ctx := TraceContext(context.Background(), traceID)
	if got := TraceIDFromContext(ctx); got != traceID {
		t.Fatalf("TraceIDFromContext = %q, want %q", got, traceID)
	}
	res1, tel1, err := e.Select(ctx, q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cached || tel1.Replay != nil {
		t.Fatalf("cold call: cached=%t replay=%v", res1.Cached, tel1.Replay)
	}
	if tel1.Trace == nil || tel1.Trace.TraceID != traceID {
		t.Fatalf("cold trace not under the client's trace ID: %+v", tel1.Trace)
	}

	res2, tel2, err := e.Select(TraceContext(context.Background(), ""), q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("second identical select did not hit the result cache")
	}
	if tel2.Replay == nil {
		t.Fatal("hit telemetry carries no Replay")
	}
	if tel2.Replay.Preprocess != tel1.Preprocess || tel2.Replay.Query != tel1.Query || tel2.Replay.Stats != tel1.Stats {
		t.Fatalf("Replay is not the filler's telemetry: %+v vs %+v", tel2.Replay, tel1)
	}
	if tel2.Replay.Trace != nil {
		t.Fatal("a trace was replayed from the cache; traces must describe their own execution")
	}
	if tel2.Trace == nil || !strings.Contains(tel2.Trace.Shape(), "hit=true") {
		t.Fatalf("hit trace missing or not marked hit=true:\n%v", tel2.Trace)
	}

	_, tel3, err := e.Select(context.Background(), q, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if tel3.Trace != nil {
		t.Fatal("untraced call carries a Trace")
	}
}

// A traced batch: every member span shares the batch's trace ID, the
// representative's prep fills carry the plan-group key, and planned
// duplicates appear as dedup=true member spans whose slots replay the
// leader bit-identically.
func TestBatchTraceIDSharedAndDedup(t *testing.T) {
	e := newTestEngine(t, engineFixtures(t))
	queries := []Query{
		{Dataset: "hotels", K: 3, Seed: 5, SampleSize: 100},
		{Dataset: "hotels", K: 5, Seed: 5, SampleSize: 100},
		{Dataset: "hotels", K: 3, Seed: 5, SampleSize: 100}, // dup of 0
	}
	col := obs.NewCollector("")
	out, err := e.SelectBatch(obs.NewCollectorContext(context.Background(), col), queries, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	for i, slot := range out {
		if slot.Err != nil {
			t.Fatalf("member %d: %v", i, slot.Err)
		}
	}
	if !out[2].Result.Cached {
		t.Fatal("planned duplicate not marked Cached")
	}
	for i := range out[0].Result.Indices {
		if out[2].Result.Indices[i] != out[0].Result.Indices[i] {
			t.Fatalf("duplicate diverged from leader: %v vs %v", out[2].Result.Indices, out[0].Result.Indices)
		}
	}
	if out[2].Telemetry.Replay == nil || out[2].Telemetry.Trace != nil {
		t.Fatalf("duplicate telemetry must replay the leader without a trace: %+v", out[2].Telemetry)
	}

	for _, sp := range col.Spans() {
		if sp.TraceID != col.TraceID() {
			t.Fatalf("span %s under trace %s, want %s", sp.Name, sp.TraceID, col.TraceID())
		}
	}
	tree := col.Tree()
	if tree == nil || tree.Span.Name != "engine.batch" {
		t.Fatalf("batch root = %+v, want engine.batch", tree)
	}
	shape := tree.Shape()
	for _, want := range []string{
		"engine.batch members=3",
		"plan groups=1 dedups=1",
		"member index=2 dedup=true",
		"group=", // the representative's prep fills are attributed to the plan group
	} {
		if !strings.Contains(shape, want) {
			t.Fatalf("batch shape missing %q:\n%s", want, shape)
		}
	}
}

// BenchmarkEngineTraceOverhead compares the warm (result-cache hit)
// path with tracing off and on: the off side is the nil-collector fast
// path and must look like the pre-tracing engine.
func BenchmarkEngineTraceOverhead(b *testing.B) {
	e := newTestEngine(b, engineFixtures(b))
	q := Query{Dataset: "hotels", K: 5, Seed: 9, SampleSize: 120}
	if _, _, err := e.Select(context.Background(), q, Exec{}); err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.Select(context.Background(), q, Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.Select(TraceContext(context.Background(), ""), q, Exec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
