package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/load"
	"github.com/regretlab/fam/serve"
)

const tinySpec = "tiny=synthetic:25:3:independent:11"

func readReport(t *testing.T, path string) load.Report {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var r load.Report
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	return r
}

// One generated run: the report must carry the accounting invariant,
// a positive throughput, and the echo of the workload spec.
func TestFamloadGenerateAndReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	trace := filepath.Join(dir, "trace.jsonl")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-datasets", tinySpec,
		"-rate", "400", "-duration", "500ms", "-warmup", "100ms",
		"-mix", "ds=tiny,k=2-4,n=40,prio=high,w=3;ds=tiny,k=5,n=40,prio=low",
		"-label", "test", "-out", out, "-record", trace, "-seed", "9",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	r := readReport(t, out)
	if r.SchemaVersion != load.ReportSchemaVersion || r.Label != "test" || r.Mode != "engine" {
		t.Fatalf("report header: %+v", r)
	}
	if r.Offered == 0 || r.Completed+r.Shed+r.Errors != r.Offered {
		t.Fatalf("accounting broken: offered=%d completed=%d shed=%d errors=%d",
			r.Offered, r.Completed, r.Shed, r.Errors)
	}
	if r.ThroughputRPS <= 0 {
		t.Fatalf("throughput %g, want > 0", r.ThroughputRPS)
	}
	if r.Workload == nil || r.Workload.Rate != 400 || len(r.Workload.Templates) != 2 {
		t.Fatalf("workload echo: %+v", r.Workload)
	}
	if len(r.Classes) == 0 || r.JainIndex <= 0 || r.JainIndex > 1 {
		t.Fatalf("classes/jain: %+v %g", r.Classes, r.JainIndex)
	}
	if r.Caches == nil {
		t.Fatal("engine-mode report missing cache rates")
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("trace not recorded: %v", err)
	}
	// Warmup entries were generated beyond the measurement window.
	if r.TraceEntries <= r.Offered {
		t.Fatalf("trace entries %d not larger than offered %d (warmup missing)", r.TraceEntries, r.Offered)
	}
}

// famload -replay is deterministic: two replays of one trace against
// freshly built engines produce byte-identical outcome sequences.
func TestFamloadReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-datasets", tinySpec,
		"-rate", "300", "-duration", "400ms",
		"-mix", "ds=tiny,k=2-5,n=40",
		"-label", "gen", "-out", filepath.Join(dir, "BENCH_gen.json"),
		"-record", trace, "-paced", "off",
	}, &buf)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	replay := func(tag string) (string, load.Report) {
		t.Helper()
		outcomes := filepath.Join(dir, "outcomes_"+tag+".jsonl")
		report := filepath.Join(dir, "BENCH_"+tag+".json")
		err := run(context.Background(), []string{
			"-datasets", tinySpec,
			"-replay", trace, "-label", tag, "-out", report, "-outcomes", outcomes,
		}, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("replay %s: %v", tag, err)
		}
		blob, err := os.ReadFile(outcomes)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob), readReport(t, report)
	}
	o1, r1 := replay("r1")
	o2, r2 := replay("r2")
	if o1 != o2 {
		t.Fatal("replayed outcome sequences differ")
	}
	if r1.OutcomeHash != r2.OutcomeHash {
		t.Fatalf("outcome hashes differ: %s vs %s", r1.OutcomeHash, r2.OutcomeHash)
	}
	if r1.Paced || r2.Paced {
		t.Fatal("replays must default to unpaced (deterministic) mode")
	}
}

// HTTP mode drives a live famserve and still balances its accounting.
func TestFamloadHTTPMode(t *testing.T) {
	engine, _, err := load.BuildEngine(fam.EngineConfig{Workers: 2}, tinySpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := httptest.NewServer(serve.NewHandler(engine))
	defer srv.Close()

	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_http.json")
	var buf bytes.Buffer
	err = run(context.Background(), []string{
		"-url", srv.URL,
		"-rate", "300", "-duration", "400ms",
		"-mix", "ds=tiny,k=2-4,n=40,prio=high;ds=tiny,k=5,n=40,deadline=-1",
		"-label", "http", "-out", out, "-paced", "off",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	r := readReport(t, out)
	if r.Mode != "http" {
		t.Fatalf("mode %q", r.Mode)
	}
	if r.Completed == 0 {
		t.Fatal("no completions over HTTP")
	}
	// The deadline=-1 template is expired on arrival: every one of its
	// requests must shed (429) and the books must still balance.
	if r.Shed == 0 {
		t.Fatal("expired-deadline template never shed")
	}
	if r.Completed+r.Shed+r.Errors != r.Offered {
		t.Fatalf("accounting broken: %+v", r)
	}
	if r.Caches == nil {
		t.Fatal("http-mode report missing cache rates (stats endpoint probe failed)")
	}
	if r.Sched == nil {
		t.Fatal("http-mode report missing sched rates (/metrics probe failed)")
	}
}

// Queue-wait attribution survives the HTTP hop: requests that fan out
// wider than one goroutine (par=4) on a small pool produce live helper
// grants, and both the per-class grant rates and the queue-wait
// percentiles in the report come back non-zero from the /metrics and
// telemetry paths of a real famserve. Each template draws from six
// seeds, so the requests keep building and solving instances: a K-sweep
// of one instance is mostly read from its recorded GREEDY-SHRINK
// trajectory and would leave too few fan-outs to saturate the pool.
func TestFamloadHTTPQueueWaitUnderSaturation(t *testing.T) {
	engine, _, err := load.BuildEngine(fam.EngineConfig{Workers: 2}, tinySpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := httptest.NewServer(serve.NewHandler(engine))
	defer srv.Close()

	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_qw.json")
	var buf bytes.Buffer
	err = run(context.Background(), []string{
		"-url", srv.URL,
		"-rate", "300", "-duration", "400ms",
		"-mix", "ds=tiny,k=2-4,seed=1|2|3|4|5|6,n=40,par=4,prio=high;ds=tiny,k=3|5,seed=1|2|3|4|5|6,n=40,par=4,prio=low",
		"-label", "qw", "-out", out, "-paced", "off", "-seed", "3",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	r := readReport(t, out)
	if r.Completed == 0 || r.Errors > 0 {
		t.Fatalf("run outcomes: %+v", r)
	}
	if r.QueueWait.MaxMS <= 0 {
		t.Fatalf("queue-wait percentiles all zero over HTTP: %+v", r.QueueWait)
	}
	if r.Sched == nil || r.Sched.Granted == 0 {
		t.Fatalf("sched rates missing or empty: %+v", r.Sched)
	}
	for _, class := range []string{"low", "high"} {
		if r.Sched.Classes[class].Granted == 0 {
			t.Fatalf("class %q collected no grants: %+v", class, r.Sched.Classes)
		}
		if cr, ok := r.Classes[class]; !ok || cr.QueueWait.MaxMS <= 0 {
			t.Fatalf("class %q queue-wait summary empty: %+v", class, r.Classes)
		}
	}
}

func TestSanitizeLabel(t *testing.T) {
	if got := sanitizeLabel("ci run/2026-08"); got != "ci_run_2026-08" {
		t.Fatalf("sanitizeLabel = %q", got)
	}
}
