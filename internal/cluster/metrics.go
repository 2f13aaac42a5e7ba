package cluster

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/regretlab/fam/internal/prom"
)

// This file implements the router's GET /metrics: Prometheus text
// exposition (version 0.0.4) written through internal/prom, the same
// writer as the replica's fam_* series. The per-replica series
// are the observable proof of the failure-handling contract: a killed
// replica shows famrouter_replica_up dropping to 0, its
// transitions_total advancing, and routed_total flat while the
// survivors' counters keep climbing.
//
// Exported series (labels in parentheses):
//
//	famrouter_requests_total             (endpoint, code) counter
//	famrouter_request_duration_seconds   (endpoint) histogram
//	famrouter_route_decisions_total      (reason)   counter
//	famrouter_route_decision_seconds               histogram
//	famrouter_retries_total                         counter
//	famrouter_scatter_batches_total                 counter
//	famrouter_scatter_subrequests_total             counter
//	famrouter_replicas                              gauge
//	famrouter_replicas_up                           gauge
//	famrouter_policy_info                (policy)   gauge (constant 1)
//	famrouter_replica_up                 (replica)  gauge
//	famrouter_replica_inflight           (replica)  gauge
//	famrouter_replica_queue_depth        (replica)  gauge
//	famrouter_replica_shed_rate          (replica)  gauge
//	famrouter_replica_result_hit_rate    (replica)  gauge
//	famrouter_replica_routed_total       (replica)  counter
//	famrouter_replica_retried_total      (replica)  counter
//	famrouter_replica_failed_total       (replica)  counter
//	famrouter_replica_transitions_total  (replica)  counter

// decisionBuckets bound the routing-decision histogram: decisions are
// map lookups and ring walks, so the scale is microseconds.
var decisionBuckets = []float64{1e-6, 5e-6, 25e-6, 1e-4, 1e-3, 1e-2}

// routerMetrics is the router-level accounting behind /metrics. A
// plain mutex over a small map — the critical section is a few map
// operations, dwarfed by the forwarded request itself.
type routerMetrics struct {
	requests prom.Requests

	mu        sync.Mutex
	decisions map[string]uint64
	decideDur *prom.Histogram

	retries            atomic.Uint64
	scatterBatches     atomic.Uint64
	scatterSubrequests atomic.Uint64
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		decisions: map[string]uint64{},
		decideDur: prom.NewHistogram(decisionBuckets),
	}
}

// decision accounts one routing decision under its reason.
func (m *routerMetrics) decision(reason string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.decisions[reason]++
	m.decideDur.Observe(seconds)
}

// handleMetrics serves the router's GET /metrics.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := prom.NewWriter()

	// Identity and topology.
	out.Family("famrouter_policy_info", "gauge", "Active routing policy (constant 1; the policy is the label).")
	out.Sample("famrouter_policy_info", prom.Labels("policy", rt.policy.Name()), 1)
	replicas := rt.sortedReplicas()
	up := 0
	for _, rep := range replicas {
		if rep.Up() {
			up++
		}
	}
	out.Family("famrouter_replicas", "gauge", "Registered replicas.")
	out.Sample("famrouter_replicas", "", float64(len(replicas)))
	out.Family("famrouter_replicas_up", "gauge", "Currently routable replicas.")
	out.Sample("famrouter_replicas_up", "", float64(up))

	// Per-replica state: the failure-transition evidence.
	out.Family("famrouter_replica_up", "gauge", "Replica routable state (1 = routable), by replica.")
	out.Family("famrouter_replica_inflight", "gauge", "Requests the router holds open against the replica.")
	out.Family("famrouter_replica_queue_depth", "gauge", "Replica queue depth from its last health check.")
	out.Family("famrouter_replica_shed_rate", "gauge", "Replica windowed shed rate from its last health check.")
	out.Family("famrouter_replica_result_hit_rate", "gauge", "Replica result-cache hit rate from its last health check.")
	out.Family("famrouter_replica_routed_total", "counter", "Requests forwarded to the replica that reached it.")
	out.Family("famrouter_replica_retried_total", "counter", "Requests that reached the replica as a retry of another replica's failure.")
	out.Family("famrouter_replica_failed_total", "counter", "Forwards that failed at the transport layer, by replica.")
	out.Family("famrouter_replica_transitions_total", "counter", "Up/down transitions observed for the replica.")
	for _, rep := range replicas {
		ls := prom.Labels("replica", rep.Name)
		upVal := 0.0
		if rep.Up() {
			upVal = 1
		}
		out.Sample("famrouter_replica_up", ls, upVal)
		out.Sample("famrouter_replica_inflight", ls, float64(rep.Inflight()))
		if h := rep.Health(); h != nil {
			out.Sample("famrouter_replica_queue_depth", ls, float64(h.QueueDepth))
			out.Sample("famrouter_replica_shed_rate", ls, h.ShedRate)
			out.Sample("famrouter_replica_result_hit_rate", ls, h.ResultHitRate)
		}
		out.Sample("famrouter_replica_routed_total", ls, float64(rep.routed.Load()))
		out.Sample("famrouter_replica_retried_total", ls, float64(rep.retried.Load()))
		out.Sample("famrouter_replica_failed_total", ls, float64(rep.failed.Load()))
		out.Sample("famrouter_replica_transitions_total", ls, float64(rep.transitions.Load()))
	}

	// Routing decisions and scatter volume.
	out.Family("famrouter_retries_total", "counter", "Forward attempts made after another replica's transport failure.")
	out.Sample("famrouter_retries_total", "", float64(rt.metrics.retries.Load()))
	out.Family("famrouter_scatter_batches_total", "counter", "v2 batches served through scatter-gather.")
	out.Sample("famrouter_scatter_batches_total", "", float64(rt.metrics.scatterBatches.Load()))
	out.Family("famrouter_scatter_subrequests_total", "counter", "Sub-batches forwarded by scatter-gather.")
	out.Sample("famrouter_scatter_subrequests_total", "", float64(rt.metrics.scatterSubrequests.Load()))

	rt.metrics.mu.Lock()
	out.Family("famrouter_route_decisions_total", "counter", "Routing decisions, by reason the policy gave.")
	reasons := make([]string, 0, len(rt.metrics.decisions))
	for reason := range rt.metrics.decisions {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		out.Sample("famrouter_route_decisions_total", prom.Labels("reason", reason), float64(rt.metrics.decisions[reason]))
	}
	out.Family("famrouter_route_decision_seconds", "histogram", "Time spent picking a replica per decision.")
	rt.metrics.decideDur.Write(out, "famrouter_route_decision_seconds")
	rt.metrics.mu.Unlock()

	// HTTP: per-endpoint request counters and latency histograms.
	rt.metrics.requests.Write(out, "famrouter_")
	out.Serve(w)
}
