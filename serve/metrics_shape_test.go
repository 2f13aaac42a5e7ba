package serve

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	fam "github.com/regretlab/fam"
)

var updateMetricsShape = flag.Bool("update-metrics-shape", false,
	"rewrite testdata/metrics_shape.golden from the current /metrics output")

// TestMetricsExpositionShape pins the full /metrics exposition — every
// # HELP and # TYPE line and every series key, in order — after a
// short fixed request sequence that includes a 404 and an unmatched
// path. Sample values are masked (they carry runtime and cache state),
// and so is the Go version label. After an intentional change:
//
//	go test -run TestMetricsExpositionShape -update-metrics-shape ./serve
func TestMetricsExpositionShape(t *testing.T) {
	engine := fam.NewEngine(fam.EngineConfig{})
	t.Cleanup(engine.Close)
	ds, err := fam.Hotels(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := fam.UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Register("hotels", ds, dist); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	srv := httptest.NewServer(NewHandlerConfig(engine, HandlerConfig{Clock: func() time.Time { return now }}))
	t.Cleanup(srv.Close)

	if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{Dataset: "hotels", K: 3, Seed: 7, SampleSize: 100}, &SelectResponse{}); code != http.StatusOK {
		t.Fatalf("select status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{Dataset: "missing", K: 3}, &ErrorResponse{}); code != http.StatusNotFound {
		t.Fatalf("unknown dataset status %d", code)
	}
	for _, path := range []string{"/v1/datasets", "/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := maskExposition(strings.ReplaceAll(string(body), `go_version="`+runtime.Version()+`"`, `go_version="GO"`))

	const golden = "testdata/metrics_shape.golden"
	if *updateMetricsShape {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-metrics-shape to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics shape differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// maskExposition keeps comment lines and series keys and replaces each
// sample value with "_".
func maskExposition(text string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if cut := strings.LastIndexByte(line, ' '); cut > 0 {
				line = line[:cut] + " _"
			}
		}
		sb.WriteString(line + "\n")
	}
	return sb.String()
}
