package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/load"
)

// scrapeMetrics fetches and parses GET /metrics.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	samples, err := load.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return samples
}

// TestMetricsEndpointCold: a cold scrape already serves every
// documented series — the per-class scheduler counters zero-filled for
// all three built-in classes, both cache label sets, the engine
// counters, and the policy info metric — so dashboards and the CI
// smoke can grep for fixed series names before any traffic.
func TestMetricsEndpointCold(t *testing.T) {
	srv, _ := newTestServer(t)
	m := scrapeMetrics(t, srv.URL)

	for _, class := range []string{"low", "normal", "high"} {
		for _, series := range []string{
			"fam_sched_granted_total", "fam_sched_shed_total", "fam_sched_stale_total",
			"fam_sched_queue_wait_seconds_total", "fam_sched_queue_depth",
		} {
			key := fmt.Sprintf(`%s{class="%s"}`, series, class)
			if _, ok := m[key]; !ok {
				t.Fatalf("cold scrape missing %s", key)
			}
		}
	}
	for _, cache := range []string{"prep", "result"} {
		for _, series := range []string{
			"fam_cache_hits_total", "fam_cache_misses_total", "fam_cache_coalesced_total",
			"fam_cache_evictions_total", "fam_cache_errors_total",
			"fam_cache_entries", "fam_cache_bytes", "fam_cache_max_bytes",
		} {
			key := fmt.Sprintf(`%s{cache="%s"}`, series, cache)
			if _, ok := m[key]; !ok {
				t.Fatalf("cold scrape missing %s", key)
			}
		}
	}
	for _, key := range []string{
		"fam_sched_deficit_grants_total",
		"fam_engine_selects_total", "fam_engine_evaluates_total",
		"fam_engine_batches_total", "fam_engine_batch_queries_total",
		"fam_engine_shed_total", "fam_engine_planned_dedups_total", "fam_engine_plan_groups_total",
		"fam_engine_pool_workers", "fam_engine_datasets", "fam_engine_uptime_seconds",
		"fam_http_uploads_total",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("cold scrape missing %s", key)
		}
	}
	if m[`fam_sched_policy_info{policy="weighted-edf"}`] != 1 {
		t.Fatalf("policy info metric missing or wrong: %v", m)
	}
	if m["fam_engine_datasets"] != 1 {
		t.Fatalf("fam_engine_datasets = %v, want 1", m["fam_engine_datasets"])
	}
}

// TestMetricsPerClassGrantsAfterMixedBurst drives a priority-mixed
// burst and asserts the per-class grant counters all advanced — the
// observable form of the starvation-bound guarantee — plus the
// per-endpoint request counters and latency histogram of the serving
// route.
func TestMetricsPerClassGrantsAfterMixedBurst(t *testing.T) {
	// A small pool under a concurrent burst of explicitly parallel
	// requests: each request fans out wider than one goroutine no matter
	// the host's CPU count, so helper tickets of every class queue while
	// workers are popping — each class collects real grants, not just
	// stale sweeps.
	engine := fam.NewEngine(fam.EngineConfig{Workers: 2})
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
	srv := httptest.NewServer(NewHandler(engine))
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	seed := uint64(100)
	for _, prio := range []string{"low", "normal", "high"} {
		for i := 0; i < 3; i++ {
			seed++
			prio, seed := prio, seed
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp BatchSelectResponse
				code := postJSON(t, srv.URL+"/v2/select", BatchSelectRequest{
					Queries: []QueryRequest{{Dataset: "hotels", K: 5, Seed: seed, SampleSize: 400}},
					Exec:    ExecRequest{Priority: prio, Parallelism: 4},
				}, &resp)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("burst member (prio %s) status %d", prio, code)
					return
				}
				if len(resp.Results) != 1 || resp.Results[0].Error != "" {
					errs <- fmt.Sprintf("burst member (prio %s) failed: %+v", prio, resp.Results)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	m := scrapeMetrics(t, srv.URL)
	for _, class := range []string{"low", "normal", "high"} {
		if g := m[fmt.Sprintf(`fam_sched_granted_total{class="%s"}`, class)]; g <= 0 {
			t.Fatalf("fam_sched_granted_total{class=%q} = %v after a mixed burst, want > 0", class, g)
		}
	}
	if m[`fam_cache_misses_total{cache="result"}`] <= 0 {
		t.Fatal("result-cache misses did not advance over cold queries")
	}
	if got := m[`fam_http_requests_total{code="200",endpoint="POST /v2/select"}`]; got < 9 {
		t.Fatalf("per-endpoint request counter = %v, want >= 9", got)
	}
	if got := m[`fam_http_request_duration_seconds_count{endpoint="POST /v2/select"}`]; got < 9 {
		t.Fatalf("latency histogram count = %v, want >= 9", got)
	}
	inf := m[`fam_http_request_duration_seconds_bucket{endpoint="POST /v2/select",le="+Inf"}`]
	if cnt := m[`fam_http_request_duration_seconds_count{endpoint="POST /v2/select"}`]; inf != cnt {
		t.Fatalf("+Inf bucket %v != histogram count %v", inf, cnt)
	}
	if m["fam_engine_batches_total"] < 9 || m["fam_engine_batch_queries_total"] < 9 {
		t.Fatalf("batch counters did not advance: %v / %v",
			m["fam_engine_batches_total"], m["fam_engine_batch_queries_total"])
	}
}

// TestMetricsRecordsErrorStatuses: failed requests land in the
// per-endpoint counters under their real status code.
func TestMetricsRecordsErrorStatuses(t *testing.T) {
	srv, _ := newTestServer(t)
	if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{Dataset: "missing", K: 3}, &ErrorResponse{}); code != http.StatusNotFound {
		t.Fatalf("unknown dataset status %d", code)
	}
	m := scrapeMetrics(t, srv.URL)
	if got := m[`fam_http_requests_total{code="404",endpoint="POST /v1/select"}`]; got != 1 {
		t.Fatalf("404 counter = %v, want 1", got)
	}
}
