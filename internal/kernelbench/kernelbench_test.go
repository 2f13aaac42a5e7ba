package kernelbench

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	fam "github.com/regretlab/fam"
)

func row(n int, algo string, coreset bool, sky, cand int, ns int64) Row {
	return Row{N: n, Corr: "anticorrelated", Algorithm: algo, Coreset: coreset,
		SkylineSize: sky, Candidates: cand, NsPerOp: ns}
}

func TestGate(t *testing.T) {
	base := &Report{SchemaVersion: SchemaVersion, ProbeNs: 20_000_000, Rows: []Row{
		row(10_000, "greedy-shrink", true, 2618, 909, 1_000_000),
		row(100_000, "greedy-shrink", true, 7159, 2400, 5_000_000),
	}}

	// Identical run: clean gate.
	if f := Gate(base, base, 0.15); len(f) != 0 {
		t.Fatalf("identical run failed the gate: %v", f)
	}

	// Timing within the gate fraction passes; beyond it fails.
	run := &Report{SchemaVersion: SchemaVersion, ProbeNs: base.ProbeNs, Rows: []Row{
		row(10_000, "greedy-shrink", true, 2618, 909, 1_100_000),
	}}
	if f := Gate(run, base, 0.15); len(f) != 0 {
		t.Fatalf("10%% slower run failed a 15%% gate: %v", f)
	}
	run.Rows[0].NsPerOp = 1_200_000
	if f := Gate(run, base, 0.15); len(f) != 1 {
		t.Fatalf("20%% regression produced %d failures, want 1", len(f))
	}
	// gate=0 disables the timing gate entirely.
	if f := Gate(run, base, 0); len(f) != 0 {
		t.Fatalf("gate=0 still failed on timing: %v", f)
	}

	// Candidate counts are machine-independent and always gated exactly.
	run.Rows[0] = row(10_000, "greedy-shrink", true, 2618, 910, 1_000_000)
	if f := Gate(run, base, 0); len(f) != 1 {
		t.Fatalf("candidate drift produced %d failures, want 1", len(f))
	}

	// Rows without a baseline counterpart are ignored (reduced-scale CI
	// runs gate against the full committed baseline).
	run.Rows[0] = row(10_000, "greedy-add", true, 2618, 909, 99_000_000)
	if f := Gate(run, base, 0.15); len(f) != 0 {
		t.Fatalf("unmatched row failed the gate: %v", f)
	}
}

// The timing gate compares solver times at the run's host speed: the
// baseline is scaled by the ratio of the two runs' probe times.
func TestGateHostProbe(t *testing.T) {
	base := &Report{SchemaVersion: SchemaVersion, ProbeNs: 20_000_000, Rows: []Row{
		row(100_000, "greedy-shrink", false, 7159, -1, 10_000_000),
	}}
	run := func(probeNs, ns int64) *Report {
		return &Report{SchemaVersion: SchemaVersion, ProbeNs: probeNs, Rows: []Row{
			row(100_000, "greedy-shrink", false, 7159, -1, ns),
		}}
	}

	// A 30% slower solver on an equally fast host fails.
	if f := Gate(run(20_000_000, 13_000_000), base, 0.15); len(f) != 1 {
		t.Fatalf("30%% slowdown at equal probe produced %d failures, want 1: %v", len(f), f)
	}
	// An unchanged solver on a host 1.8× slower passes: its probe and
	// its solver slow down together.
	if f := Gate(run(36_000_000, 18_000_000), base, 0.15); len(f) != 0 {
		t.Fatalf("equal speed under a 1.8× slower probe failed: %v", f)
	}
	// ...and a 30% slower solver on that slower host still fails.
	if f := Gate(run(36_000_000, 23_400_000), base, 0.15); len(f) != 1 {
		t.Fatalf("30%% slowdown under a 1.8× slower probe produced %d failures, want 1: %v", len(f), f)
	}

	// A baseline without a probe cannot be rescaled, so the timing gate
	// rejects it; the count-only gate does not need one.
	noProbe := &Report{SchemaVersion: SchemaVersion, Rows: base.Rows}
	if f := Gate(run(20_000_000, 10_000_000), noProbe, 0.15); len(f) != 1 {
		t.Fatalf("baseline without probe_ns produced %d failures, want 1: %v", len(f), f)
	}
	if f := Gate(run(20_000_000, 10_000_000), noProbe, 0); len(f) != 0 {
		t.Fatalf("count-only gate needed a probe: %v", f)
	}
}

// A row's two timing columns are each the fastest over its runs: the
// preprocessing time does not follow the run with the fastest query.
func TestRowObserveFastestEach(t *testing.T) {
	runs := []*fam.Telemetry{
		{Query: 5 * time.Millisecond, Preprocess: 9 * time.Millisecond},
		{Query: 3 * time.Millisecond, Preprocess: 12 * time.Millisecond},
		{Query: 4 * time.Millisecond, Preprocess: 7 * time.Millisecond},
		{Query: 6 * time.Millisecond, Preprocess: 8 * time.Millisecond},
	}
	var r Row
	for i, tel := range runs {
		r.observe(i == 0, tel)
	}
	if r.NsPerOp != int64(3*time.Millisecond) || r.PreprocessNs != int64(7*time.Millisecond) {
		t.Fatalf("ns_per_op = %v, preprocess_ns = %v; want 3ms and 7ms",
			time.Duration(r.NsPerOp), time.Duration(r.PreprocessNs))
	}
	// A later run never lowers a column below a value it did not reach.
	r.observe(false, &fam.Telemetry{Query: 10 * time.Millisecond, Preprocess: 10 * time.Millisecond})
	if r.NsPerOp != int64(3*time.Millisecond) || r.PreprocessNs != int64(7*time.Millisecond) {
		t.Fatalf("slower run changed the row: %+v", r)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{SchemaVersion: SchemaVersion, Label: "t", ProbeNs: 20_000_000, Rows: []Row{
		row(10_000, "greedy-shrink", true, 2618, 909, 1_000_000),
	}}
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0] != rep.Rows[0] || got.Label != "t" || got.ProbeNs != rep.ProbeNs {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Unknown schema versions are rejected, not silently compared.
	rep.SchemaVersion = 99
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("schema_version 99 loaded without error")
	}
}

// The sweep itself is deterministic in its candidate counts: two runs at
// the smallest scale agree row-for-row on everything but wall time.
func TestRunDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run in -short mode")
	}
	ctx := context.Background()
	cfg := Config{MaxN: 10_000, Seed: 1}
	a, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == 0 || len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		x, y := a.Rows[i], b.Rows[i]
		if x.key() != y.key() || x.SkylineSize != y.SkylineSize || x.Candidates != y.Candidates || x.ARR != y.ARR {
			t.Fatalf("row %d diverged: %+v vs %+v", i, x, y)
		}
		if x.Coreset && (x.Candidates <= 0 || x.Candidates > x.SkylineSize) {
			t.Fatalf("row %d: implausible coreset size %d of %d", i, x.Candidates, x.SkylineSize)
		}
	}
	// The gate passes against the run's own twin (timing gate off: wall
	// clock is the one non-deterministic column, covered by TestGate).
	if f := Gate(a, b, 0); len(f) != 0 {
		t.Fatalf("twin runs failed the count gate: %v", f)
	}
}
