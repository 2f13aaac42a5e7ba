package serve

import (
	"net/http"
	"runtime"
	"sort"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/prom"
)

// BuildVersion labels fam_build_info. Override at link time:
//
//	go build -ldflags "-X github.com/regretlab/fam/serve.BuildVersion=v1.2.3"
var BuildVersion = "dev"

// This file implements GET /metrics: the Prometheus text exposition
// (version 0.0.4) of the engine's scheduling, cache, and planner
// counters plus the handler's per-endpoint request accounting, written
// through internal/prom. The per-class scheduling series are the
// observable proof of the deficit-bounded starvation fix: under any
// sustained priority mix, every class's fam_sched_granted_total keeps
// advancing.
//
// Exported series (labels in parentheses):
//
//	fam_sched_granted_total            (class)  counter
//	fam_sched_shed_total               (class)  counter
//	fam_sched_stale_total              (class)  counter
//	fam_sched_queue_wait_seconds_total (class)  counter
//	fam_sched_queue_depth              (class)  gauge
//	fam_sched_deficit_grants_total              counter
//	fam_sched_policy_info              (policy) gauge (constant 1)
//	fam_cache_hits_total               (cache)  counter  cache = "prep"|"result"
//	fam_cache_misses_total             (cache)  counter
//	fam_cache_coalesced_total          (cache)  counter
//	fam_cache_evictions_total          (cache)  counter
//	fam_cache_expired_total            (cache)  counter
//	fam_cache_errors_total             (cache)  counter
//	fam_cache_entries                  (cache)  gauge
//	fam_cache_bytes                    (cache)  gauge
//	fam_cache_max_bytes                (cache)  gauge
//	fam_engine_selects_total                    counter
//	fam_engine_evaluates_total                  counter
//	fam_engine_batches_total                    counter
//	fam_engine_batch_queries_total              counter
//	fam_engine_shed_total                       counter
//	fam_engine_planned_dedups_total             counter
//	fam_engine_plan_groups_total                counter
//	fam_engine_pool_workers                     gauge
//	fam_engine_datasets                         gauge
//	fam_engine_uptime_seconds                   gauge
//	fam_http_uploads_total                      counter
//	fam_http_requests_total            (endpoint, code) counter
//	fam_http_request_duration_seconds  (endpoint) histogram
//	fam_build_info                     (version, go_version) gauge (constant 1)
//	fam_go_goroutines                           gauge
//	fam_go_heap_alloc_bytes                     gauge
//	fam_go_gc_pause_seconds_total               counter
//	fam_trace_spans_total                       counter
//	fam_slow_queries_total                      counter
//
// The per-class scheduling series always carry the three built-in
// classes (low/normal/high) zero-filled plus any custom class the
// queue has observed, so a cold scrape already exposes every label a
// dashboard will query.

// schedClasses returns the union of the built-in class names and every
// class observed by the queue, sorted — the stable label universe of
// the per-class series.
func schedClasses(per map[string]fam.SchedClassStats) []string {
	seen := map[string]bool{"low": true, "normal": true, "high": true}
	for class := range per {
		seen[class] = true
	}
	classes := make([]string, 0, len(seen))
	for class := range seen {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	return classes
}

// handleMetrics serves GET /metrics.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats := h.engine.Stats()
	out := prom.NewWriter()

	// Scheduling: the per-class proof of the starvation bound.
	out.Family("fam_sched_granted_total", "counter", "Helper requests granted to a pool worker, by priority class.")
	out.Family("fam_sched_shed_total", "counter", "Requests rejected by deadline admission control, by priority class.")
	out.Family("fam_sched_stale_total", "counter", "Queued helper tickets discarded because their call had finished, by priority class.")
	out.Family("fam_sched_queue_wait_seconds_total", "counter", "Summed enqueue-to-grant wait of granted requests, by priority class.")
	out.Family("fam_sched_queue_depth", "gauge", "Currently queued helper requests, by priority class.")
	for _, class := range schedClasses(stats.Sched.PerClass) {
		cs := stats.Sched.PerClass[class]
		ls := prom.Labels("class", class)
		out.Sample("fam_sched_granted_total", ls, float64(cs.Granted))
		out.Sample("fam_sched_shed_total", ls, float64(cs.Shed))
		out.Sample("fam_sched_stale_total", ls, float64(cs.Stale))
		out.Sample("fam_sched_queue_wait_seconds_total", ls, cs.QueueWait.Seconds())
		out.Sample("fam_sched_queue_depth", ls, float64(cs.Depth))
	}
	out.Family("fam_sched_deficit_grants_total", "counter", "Grants where an overdue lighter class was served ahead of a heavier one (starvation relief).")
	out.Sample("fam_sched_deficit_grants_total", "", float64(stats.Sched.DeficitGrants))
	out.Family("fam_sched_policy_info", "gauge", "Active grant policy (constant 1; the policy is the label).")
	out.Sample("fam_sched_policy_info", prom.Labels("policy", stats.Sched.Policy), 1)

	// Caches: the prep and result caches side by side.
	out.Family("fam_cache_hits_total", "counter", "Cache hits, by cache.")
	out.Family("fam_cache_misses_total", "counter", "Cache misses, by cache.")
	out.Family("fam_cache_coalesced_total", "counter", "Lookups that joined an in-flight build instead of duplicating it, by cache.")
	out.Family("fam_cache_evictions_total", "counter", "Entries evicted by the size policy, by cache.")
	out.Family("fam_cache_expired_total", "counter", "Entries dropped by TTL expiry, by cache.")
	out.Family("fam_cache_errors_total", "counter", "Failed fills (not cached), by cache.")
	out.Family("fam_cache_entries", "gauge", "Live cache entries, by cache.")
	out.Family("fam_cache_bytes", "gauge", "Bytes held by live cache entries, by cache.")
	out.Family("fam_cache_max_bytes", "gauge", "Configured byte capacity (0 = unbounded), by cache.")
	for _, c := range []struct {
		name string
		s    fam.CacheStats
	}{{"prep", stats.PrepCache}, {"result", stats.ResultCache}} {
		ls := prom.Labels("cache", c.name)
		out.Sample("fam_cache_hits_total", ls, float64(c.s.Hits))
		out.Sample("fam_cache_misses_total", ls, float64(c.s.Misses))
		out.Sample("fam_cache_coalesced_total", ls, float64(c.s.Coalesced))
		out.Sample("fam_cache_evictions_total", ls, float64(c.s.Evictions))
		out.Sample("fam_cache_expired_total", ls, float64(c.s.Expired))
		out.Sample("fam_cache_errors_total", ls, float64(c.s.Errors))
		out.Sample("fam_cache_entries", ls, float64(c.s.Entries))
		out.Sample("fam_cache_bytes", ls, float64(c.s.Bytes))
		out.Sample("fam_cache_max_bytes", ls, float64(c.s.MaxBytes))
	}

	// Engine: query and batch-planner counters.
	engineCounters := []struct {
		name, help string
		value      float64
	}{
		{"fam_engine_selects_total", "Selection queries accepted (cache hits included).", float64(stats.Selects)},
		{"fam_engine_evaluates_total", "Evaluation queries accepted.", float64(stats.Evaluates)},
		{"fam_engine_batches_total", "SelectBatch calls accepted.", float64(stats.Batches)},
		{"fam_engine_batch_queries_total", "Member queries across accepted batches.", float64(stats.BatchQueries)},
		{"fam_engine_shed_total", "Queries shed by engine admission control.", float64(stats.Shed)},
		{"fam_engine_planned_dedups_total", "Batch members answered by another member's in-batch result (fingerprint dedup).", float64(stats.PlannedDedups)},
		{"fam_engine_plan_groups_total", "Instance groups formed by the batch planner.", float64(stats.PlanGroups)},
	}
	for _, c := range engineCounters {
		out.Family(c.name, "counter", c.help)
		out.Sample(c.name, "", c.value)
	}
	out.Family("fam_engine_pool_workers", "gauge", "Workers of the engine's shared pool.")
	out.Sample("fam_engine_pool_workers", "", float64(stats.PoolWorkers))
	out.Family("fam_engine_datasets", "gauge", "Registered datasets.")
	out.Sample("fam_engine_datasets", "", float64(stats.Datasets))
	out.Family("fam_engine_uptime_seconds", "gauge", "Seconds since the engine was built.")
	out.Sample("fam_engine_uptime_seconds", "", stats.Uptime.Seconds())
	out.Family("fam_http_uploads_total", "counter", "Datasets accepted through dataset upload.")
	out.Sample("fam_http_uploads_total", "", float64(h.uploads.Load()))

	// Build identity and Go runtime health.
	out.Family("fam_build_info", "gauge", "Build identity (constant 1; the version labels carry the information).")
	out.Sample("fam_build_info", prom.Labels("version", BuildVersion, "go_version", runtime.Version()), 1)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out.Family("fam_go_goroutines", "gauge", "Live goroutines.")
	out.Sample("fam_go_goroutines", "", float64(runtime.NumGoroutine()))
	out.Family("fam_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	out.Sample("fam_go_heap_alloc_bytes", "", float64(mem.HeapAlloc))
	out.Family("fam_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	out.Sample("fam_go_gc_pause_seconds_total", "", float64(mem.PauseTotalNs)/1e9)

	// Tracing: span volume and slow-query count.
	out.Family("fam_trace_spans_total", "counter", "Spans collected by finished request traces.")
	out.Sample("fam_trace_spans_total", "", float64(h.traceSpans.Load()))
	out.Family("fam_slow_queries_total", "counter", "Query requests slower than the slow-query threshold.")
	out.Sample("fam_slow_queries_total", "", float64(h.slowQueries.Load()))

	// HTTP: per-endpoint request counters and latency histograms.
	h.metrics.Write(out, "fam_http_")
	out.Serve(w)
}
