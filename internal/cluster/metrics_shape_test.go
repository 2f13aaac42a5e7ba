package cluster

import (
	"flag"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateMetricsShape = flag.Bool("update-metrics-shape", false,
	"rewrite testdata/metrics_shape.golden from the current /metrics output")

// TestRouterMetricsExpositionShape pins the router's full /metrics
// exposition — every # HELP and # TYPE line and every series key, in
// order — after a short fixed request sequence that includes a 404 and
// an unmatched path. Sample values are masked, and replica names
// (which carry ephemeral ports) become their position in sorted order.
// After an intentional change:
//
//	go test -run TestRouterMetricsExpositionShape -update-metrics-shape ./internal/cluster
func TestRouterMetricsExpositionShape(t *testing.T) {
	tc := startCluster(t, 2, nil)
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	srv, _ := startRouter(t, tc, RouterConfig{Clock: func() time.Time { return now }})

	if code, _ := postJSON(t, srv.URL+"/v1/select", selectBody, nil); code != http.StatusOK {
		t.Fatalf("select status %d", code)
	}
	missing := map[string]any{"dataset": "missing", "k": 3}
	if code, _ := postJSON(t, srv.URL+"/v1/select", missing, nil); code != http.StatusNotFound {
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
	text := string(body)
	var names []string
	for _, rep := range tc.registry.Replicas() {
		names = append(names, rep.Name)
	}
	sort.Strings(names)
	for i, name := range names {
		text = strings.ReplaceAll(text, `replica="`+name+`"`, `replica="`+strconv.Itoa(i)+`"`)
	}
	got := maskExposition(text)

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
