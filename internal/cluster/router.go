package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/regretlab/fam/internal/obs"
	"github.com/regretlab/fam/internal/prom"
	"github.com/regretlab/fam/serve"
)

// maxBodyBytes bounds one routed request or upstream response body.
// Uploads are the big case; 64 MiB matches a generous CSV dataset.
const maxBodyBytes = 64 << 20

// Router is the HTTP front end over the replica set. It terminates
// the same API surface famserve exposes — /v1/select, /v1/evaluate,
// /v2/select, datasets, stats — and forwards each request to a
// replica chosen by the routing policy, retrying transport failures
// against the remaining replicas (queries are idempotent). v2 batches
// take the scatter-gather path: members group by instance key, each
// group goes to its affine replica as one sub-batch, and the slots
// reassemble in request order.
type Router struct {
	reg     *Registry
	policy  Policy
	learner Learner // policy's Learn hook, nil when it has none
	client  *http.Client
	log     *slog.Logger
	clock   func() time.Time
	start   time.Time
	retries int
	mux     *http.ServeMux
	metrics *routerMetrics
}

// RouterConfig carries the router's knobs; zero values take defaults.
type RouterConfig struct {
	// Policy picks replicas. Default: affinity over the registry.
	Policy Policy
	// Retries is how many additional replicas a request may try after
	// a transport failure. 0 takes the default of 1; negative keeps
	// passive mark-down but fails the request on the first dead
	// replica.
	Retries int
	// Client issues the forwarded requests. Default http.DefaultClient.
	Client *http.Client
	// Log receives routing warnings. Nil discards them.
	Log *slog.Logger
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// NewRouter builds the routing handler over a registry.
func NewRouter(reg *Registry, cfg RouterConfig) *Router {
	if cfg.Policy == nil {
		cfg.Policy = NewAffinity(reg.Replicas())
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	rt := &Router{
		reg:     reg,
		policy:  cfg.Policy,
		client:  cfg.Client,
		log:     cfg.Log,
		clock:   cfg.Clock,
		start:   cfg.Clock(),
		retries: cfg.Retries,
		mux:     http.NewServeMux(),
		metrics: newRouterMetrics(),
	}
	rt.learner, _ = cfg.Policy.(Learner)
	rt.mux.HandleFunc("POST /v1/select", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/evaluate", rt.handleQuery)
	rt.mux.HandleFunc("POST /v2/select", rt.handleScatter)
	rt.mux.HandleFunc("GET /v1/datasets", rt.handleAny)
	rt.mux.HandleFunc("GET /v2/datasets", rt.handleAny)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleAny)
	rt.mux.HandleFunc("GET /v2/stats", rt.handleAny)
	rt.mux.HandleFunc("POST /v1/datasets", rt.handleBroadcast)
	rt.mux.HandleFunc("POST /v2/datasets", rt.handleBroadcast)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt
}

// Policy returns the active routing policy.
func (rt *Router) Policy() Policy { return rt.policy }

// ServeHTTP is the router's observability middleware: it arms a trace
// when the client asked for one (so router and replica spans share a
// trace ID), records per-endpoint metrics, and dispatches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, pattern := rt.mux.Handler(r)
	if pattern == "" {
		pattern = "(unmatched)"
	}
	ctx := r.Context()
	if traceID, remoteSpan, armed := inboundTrace(r); armed {
		col := obs.NewCollector(traceID)
		if remoteSpan != "" {
			col.SetRemoteParent(remoteSpan)
		}
		ctx = obs.NewCollectorContext(ctx, col)
		var root *obs.Span
		ctx, root = obs.Start(ctx, "router "+pattern)
		defer root.End()
		w.Header().Set(serve.HeaderTrace, col.TraceID())
		w.Header().Set(serve.HeaderTraceparent, obs.FormatTraceparent(col.TraceID(), root.SpanID))
	}
	rec := &prom.StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
	begin := rt.clock()
	rt.mux.ServeHTTP(rec, r.WithContext(ctx))
	rt.metrics.requests.Record(pattern, rec.Status, rt.clock().Sub(begin).Seconds())
}

// inboundTrace mirrors the replica's header contract: X-Fam-Trace
// wins the trace ID, a malformed traceparent is ignored rather than
// failing the request.
func inboundTrace(r *http.Request) (traceID, remoteSpan string, armed bool) {
	if v := r.Header.Get(serve.HeaderTraceparent); v != "" {
		if t, s, ok := obs.ParseTraceparent(v); ok {
			traceID, remoteSpan, armed = t, s, true
		}
	}
	if v := r.Header.Get(serve.HeaderTrace); v != "" {
		armed = true
		if obs.ValidTraceID(v) {
			traceID = v
		}
	}
	return traceID, remoteSpan, armed
}

// routeFields are the request-body fields that determine a query's
// preprocessing instance — the router's routing key, decoded
// tolerantly (unknown fields ignored, missing fields zero).
type routeFields struct {
	Dataset        string  `json:"dataset"`
	Seed           uint64  `json:"seed"`
	Epsilon        float64 `json:"epsilon"`
	Sigma          float64 `json:"sigma"`
	SampleSize     int     `json:"sample_size"`
	DisableSkyline bool    `json:"disable_skyline"`
}

// routeKey renders the raw group key. Two requests with equal keys
// share a preprocessing instance; the learned affinity map handles
// distinct keys that normalize to the same instance (e.g. an explicit
// sample_size equal to the ε/σ-derived default).
func (f routeFields) routeKey() RouteKey {
	return RouteKey{
		GroupKey: fmt.Sprintf("%s|sky=%t|seed=%d|eps=%g|sig=%g|N=%d",
			f.Dataset, !f.DisableSkyline, f.Seed, f.Epsilon, f.Sigma, f.SampleSize),
		Dataset: f.Dataset,
	}
}

// handleQuery proxies one single-query request (v1 select/evaluate)
// to the policy-chosen replica.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var fields routeFields
	_ = json.Unmarshal(body, &fields) // a bad body routes anywhere; the replica rejects it
	resp, respBody, replica, err := rt.dispatch(r, fields.routeKey(), body)
	if err != nil {
		rt.writeError(w, http.StatusBadGateway, err)
		return
	}
	if rt.learner != nil && resp.StatusCode == http.StatusOK {
		if key := resp.Header.Get(serve.HeaderInstanceKey); key != "" {
			rt.learner.Learn(fields.routeKey(), firstKey(key), replica)
		}
	}
	rt.relay(w, resp, respBody)
}

// handleAny proxies a read-only endpoint (datasets, stats) to any
// routable replica.
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	resp, respBody, _, err := rt.dispatch(r, RouteKey{}, nil)
	if err != nil {
		rt.writeError(w, http.StatusBadGateway, err)
		return
	}
	rt.relay(w, resp, respBody)
}

// handleBroadcast fans a dataset upload out to every routable
// replica: affinity only pays off when the affine replica actually
// has the dataset, so uploads must land everywhere. The upload
// succeeds only if every routable replica accepted it; on a partial
// failure the response names the failed replicas and the caller
// re-uploads (the operation is idempotent — a replica that already
// has the dataset answers 409, which the router treats as success).
func (rt *Router) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	replicas := rt.reg.UpReplicas()
	if len(replicas) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no routable replicas"))
		return
	}
	type answer struct {
		replica *Replica
		resp    *http.Response
		body    []byte
		err     error
	}
	answers := make([]answer, len(replicas))
	var wg sync.WaitGroup
	for i, rep := range replicas {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			resp, respBody, err := rt.forward(r.Context(), rep, r, body)
			answers[i] = answer{replica: rep, resp: resp, body: respBody, err: err}
		}(i, rep)
	}
	wg.Wait()
	var failed []string
	var success *answer
	for i := range answers {
		a := &answers[i]
		switch {
		case a.err != nil:
			failed = append(failed, fmt.Sprintf("%s: %v", a.replica.Name, a.err))
		case a.resp.StatusCode < 300 || a.resp.StatusCode == http.StatusConflict:
			if success == nil || a.resp.StatusCode < 300 {
				success = a
			}
		default:
			failed = append(failed, fmt.Sprintf("%s: status %d", a.replica.Name, a.resp.StatusCode))
		}
	}
	if len(failed) > 0 {
		rt.writeError(w, http.StatusBadGateway,
			fmt.Errorf("upload incomplete, re-upload to converge: %s", strings.Join(failed, "; ")))
		return
	}
	rt.relay(w, success.resp, success.body)
}

// dispatch picks a replica for the request and forwards it, retrying
// transport failures against replicas not yet tried. A replica that
// fails at the transport layer is passively marked down on the spot —
// a crashed process stops receiving traffic immediately instead of
// waiting out the health checker's fail threshold.
func (rt *Router) dispatch(r *http.Request, key RouteKey, body []byte) (*http.Response, []byte, *Replica, error) {
	tried := make(map[*Replica]bool)
	var lastErr error
	for attempt := 0; attempt <= rt.retries; attempt++ {
		candidates := rt.untried(tried)
		if len(candidates) == 0 {
			break
		}
		pickStart := rt.clock()
		replica, reason := rt.policy.Pick(key, candidates)
		rt.metrics.decision(reason, rt.clock().Sub(pickStart).Seconds())
		if attempt > 0 {
			replica.retried.Add(1)
			rt.metrics.retries.Add(1)
		}
		tried[replica] = true
		resp, respBody, err := rt.forward(r.Context(), replica, r, body)
		if err != nil {
			if r.Context().Err() != nil {
				return nil, nil, nil, r.Context().Err()
			}
			lastErr = err
			replica.failed.Add(1)
			replica.setUp(false)
			rt.log.Warn("replica transport failure", "replica", replica.Name, "err", err)
			continue
		}
		replica.routed.Add(1)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			replica.noteShed(rt.clock())
		}
		return resp, respBody, replica, nil
	}
	if lastErr != nil {
		return nil, nil, nil, fmt.Errorf("all routable replicas failed: %w", lastErr)
	}
	return nil, nil, nil, fmt.Errorf("no routable replicas")
}

// untried returns the routable replicas not yet attempted for this
// request, in registration order.
func (rt *Router) untried(tried map[*Replica]bool) []*Replica {
	up := rt.reg.UpReplicas()
	out := up[:0:0]
	for _, r := range up {
		if !tried[r] {
			out = append(out, r)
		}
	}
	return out
}

// forward sends one copy of the request to one replica and reads the
// full response. The inbound headers travel verbatim (a malformed
// traceparent included — the replica ignores it exactly as the router
// did); when this request is traced, the router overrides traceparent
// with its own forward span so the replica's root span parents under
// the router's trace.
func (rt *Router) forward(ctx context.Context, replica *Replica, r *http.Request, body []byte) (*http.Response, []byte, error) {
	var span *obs.Span
	if obs.Active(ctx) {
		ctx, span = obs.Start(ctx, "forward "+replica.Name)
		defer span.End()
		span.SetAttr("replica", replica.Name)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, replica.BaseURL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	copyHeaders(req.Header, r.Header)
	if span != nil {
		col := span.Collector()
		req.Header.Set(serve.HeaderTraceparent, obs.FormatTraceparent(col.TraceID(), span.SpanID))
		req.Header.Del(serve.HeaderTrace) // traceparent alone carries the parent link
	}
	replica.inflight.Add(1)
	defer replica.inflight.Add(-1)
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s response: %w", replica.Name, err)
	}
	if span != nil {
		span.SetAttrInt("status", resp.StatusCode)
	}
	return resp, respBody, nil
}

// hopHeaders are the hop-by-hop headers a proxy must not forward.
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	for _, k := range hopHeaders {
		dst.Del(k)
	}
	dst.Del("Content-Length") // recomputed for the new body reader
}

// relay writes an upstream response through to the client. Headers
// the router already owns (the trace headers of an armed request)
// win over the replica's — the client sees the router's root span,
// with the replica's spans parented beneath it in the shared trace.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	for k, vs := range resp.Header {
		if k == "Content-Length" || w.Header().Get(k) != "" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// writeError renders a router-level failure in the v2 error dialect.
func (rt *Router) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorV2{Code: routerErrorCode(status), Message: err.Error()})
}

func routerErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return serve.CodeBadRequest
	case http.StatusNotFound:
		return serve.CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return serve.CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return serve.CodeShed
	case http.StatusServiceUnavailable, http.StatusBadGateway:
		return serve.CodeUnavailable
	default:
		return serve.CodeInternal
	}
}

// firstKey returns the first of a comma-joined instance-key list.
func firstKey(v string) string {
	if i := strings.IndexByte(v, ','); i >= 0 {
		return v[:i]
	}
	return v
}

// RouterHealthz is the body of the router's own GET /healthz.
type RouterHealthz struct {
	OK       bool    `json:"ok"`
	Policy   string  `json:"policy"`
	Replicas int     `json:"replicas"`
	Up       int     `json:"up"`
	UptimeS  float64 `json:"uptime_s"`
}

// handleHealthz serves the router's own readiness: OK while at least
// one replica is routable.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := len(rt.reg.UpReplicas())
	status := http.StatusOK
	if up == 0 {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(RouterHealthz{
		OK:       up > 0,
		Policy:   rt.policy.Name(),
		Replicas: len(rt.reg.Replicas()),
		Up:       up,
		UptimeS:  rt.clock().Sub(rt.start).Seconds(),
	})
}

// sortedReplicaNames returns replica names sorted for stable
// exposition output.
func (rt *Router) sortedReplicas() []*Replica {
	reps := append([]*Replica(nil), rt.reg.Replicas()...)
	sort.Slice(reps, func(i, j int) bool { return reps[i].Name < reps[j].Name })
	return reps
}
