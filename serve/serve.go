// Package serve is the JSON-over-HTTP front end of the fam serving
// engine: request/response types and an http.Handler exposing
//
//	GET  /v1/datasets  — the registered datasets
//	POST /v1/datasets  — upload a CSV dataset into the registry
//	POST /v1/select    — run (or answer from cache) one selection query
//	POST /v1/evaluate  — score an explicit selection set
//	GET  /v1/stats     — engine + HTTP counters
//	POST /v2/select    — batched queries: array in, array out, with
//	                     per-member error slots and an explicit
//	                     query/exec split
//	GET  /v2/datasets  — the registered datasets (typed error envelope)
//	POST /v2/datasets  — CSV upload (typed error envelope)
//	GET  /v2/stats     — engine + HTTP counters (typed error envelope)
//	GET  /metrics      — Prometheus text exposition: per-class
//	                     scheduler counters, cache gauges, planner and
//	                     per-endpoint request metrics (see metrics.go)
//
// The v2 surface mirrors the library's Query/Exec API: each member of a
// batch is a purely semantic query, and one exec block sets the
// execution policy for the whole batch — including scheduling: a
// priority class ("low"|"normal"|"high"), a relative deadline in
// milliseconds, and a max_queue admission bound. The same three knobs
// are accepted on any select/evaluate request (v1 included) through the
// X-Fam-Priority, X-Fam-Deadline-Ms, and X-Fam-Max-Queue headers; an
// explicit exec-block value wins over its header. Work shed by
// admission control answers 429 (Too Many Requests); work that ran out
// of deadline mid-flight answers 503. Every /v2 failure body is the
// typed envelope {code, message}; the /v1 endpoints are frozen shims —
// same machinery, the original {error} envelope.
//
// Every request runs under its own request context, so a disconnecting
// client cancels its wait immediately (shared cache fills keep running —
// they warm the cache for the next client). cmd/famserve wires this
// handler into a server with graceful shutdown; examples/server drives
// it in-process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/load"
	"github.com/regretlab/fam/internal/obs"
	"github.com/regretlab/fam/internal/prom"
)

// QueryRequest is the JSON shape of one semantic query: the v2 batch
// member, and the core of the v1 select/evaluate bodies. Zero-valued
// fields take the library defaults (algorithm greedy-shrink,
// ε = σ = 0.1 → N = 691). A non-empty Set makes the member an
// evaluation query (K and Algorithm are ignored).
type QueryRequest struct {
	Dataset        string        `json:"dataset"`
	K              int           `json:"k,omitempty"`
	Algorithm      fam.Algorithm `json:"algorithm,omitempty"`
	Seed           uint64        `json:"seed,omitempty"`
	Epsilon        float64       `json:"epsilon,omitempty"`
	Sigma          float64       `json:"sigma,omitempty"`
	SampleSize     int           `json:"sample_size,omitempty"`
	DisableSkyline bool          `json:"disable_skyline,omitempty"`
	// Coreset enables the ε-kernel candidate prepass with tolerance
	// CoresetEps (0 = library default). Semantic knobs: they change the
	// answer within the ε bound, not just its latency.
	Coreset    bool    `json:"coreset,omitempty"`
	CoresetEps float64 `json:"coreset_eps,omitempty"`
	// Float32 stores the utility matrix in float32 (half the bytes,
	// ~1e-7 relative drift on metrics).
	Float32 bool  `json:"float32,omitempty"`
	Set     []int `json:"set,omitempty"`
}

// toQuery maps the request member to a fam.Query.
func (r *QueryRequest) toQuery() fam.Query {
	return fam.Query{
		Dataset:        r.Dataset,
		K:              r.K,
		Algorithm:      r.Algorithm,
		Seed:           r.Seed,
		Epsilon:        r.Epsilon,
		Sigma:          r.Sigma,
		SampleSize:     r.SampleSize,
		DisableSkyline: r.DisableSkyline,
		Coreset:        r.Coreset,
		CoresetEps:     r.CoresetEps,
		Float32:        r.Float32,
		ExplicitSet:    r.Set,
	}
}

// ExecRequest is the JSON shape of the execution policy: it never
// changes an answer, only how fast (and whether, under overload) it is
// computed.
type ExecRequest struct {
	Parallelism int `json:"parallelism,omitempty"`
	// Priority is the scheduling class: "low", "normal" (default), or
	// "high". Under load the pool grants helpers to higher classes
	// first.
	Priority string `json:"priority,omitempty"`
	// DeadlineMS is the relative completion deadline in milliseconds
	// from request arrival, clamped to one year (so an absurdly large
	// value means "generous deadline", never an overflow into the past).
	// A negative value is already expired and is shed (429). Zero value
	// (field absent) means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxQueue sheds the request (429) when more helper requests than
	// this are already queued on the engine's pool. Zero = no bound.
	MaxQueue int `json:"max_queue,omitempty"`
	// Trace requests each member's finished span tree in its response
	// telemetry (v2 surface only). A request not already traced through
	// the X-Fam-Trace / traceparent headers is armed with a fresh trace
	// ID, echoed back in X-Fam-Trace.
	Trace bool `json:"trace,omitempty"`
}

// toExec resolves the wire exec policy at the given arrival time.
func (r ExecRequest) toExec(now time.Time) (fam.Exec, error) {
	exec := fam.Exec{Parallelism: r.Parallelism, MaxQueue: r.MaxQueue}
	if r.Priority != "" {
		p, err := fam.ParsePriority(r.Priority)
		if err != nil {
			return fam.Exec{}, err
		}
		exec.Priority = p
	}
	if r.DeadlineMS != 0 {
		ms := r.DeadlineMS
		switch {
		case ms > maxDeadlineMS:
			ms = maxDeadlineMS
		case ms < -maxDeadlineMS:
			ms = -maxDeadlineMS // still expired — sheds, as any negative value must
		}
		exec.Deadline = now.Add(time.Duration(ms) * time.Millisecond)
	}
	return exec, nil
}

// maxDeadlineMS clamps |deadline_ms| at one year: far below the
// ~292-year int64-nanosecond horizon, so the millisecond→Duration
// conversion can never overflow — a huge positive value stays a
// generous future deadline, a huge negative one stays expired.
const maxDeadlineMS = int64(365 * 24 * time.Hour / time.Millisecond)

// Scheduling headers accepted on every select/evaluate request; the
// exec block's explicit values win over them.
const (
	HeaderPriority   = "X-Fam-Priority"
	HeaderDeadlineMS = "X-Fam-Deadline-Ms"
	HeaderMaxQueue   = "X-Fam-Max-Queue"
)

// HeaderInstanceKey is echoed on successful query responses with the
// normalized preprocessing-instance key(s) the request resolved to
// (comma-separated on batch responses, unique keys only). A cluster
// router uses it to learn which replica holds which warm instance
// instead of guessing keys from raw request bodies.
const HeaderInstanceKey = "X-Fam-Instance-Key"

// setInstanceKeyHeader echoes the unique instance keys of the served
// queries, in first-appearance order, on HeaderInstanceKey. Queries
// that don't resolve (unknown dataset — the request failed anyway, or
// a racing delete) contribute nothing.
func (h *Handler) setInstanceKeyHeader(w http.ResponseWriter, queries ...fam.Query) {
	var keys []string
	seen := make(map[string]bool, len(queries))
	for _, q := range queries {
		key := h.engine.InstanceKey(q)
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		keys = append(keys, key)
	}
	if len(keys) > 0 {
		w.Header().Set(HeaderInstanceKey, strings.Join(keys, ","))
	}
}

// withHeaders folds the scheduling headers into the wire exec policy:
// a header applies only where the body left the knob unset.
func (r ExecRequest) withHeaders(req *http.Request) (ExecRequest, error) {
	if v := req.Header.Get(HeaderPriority); v != "" && r.Priority == "" {
		r.Priority = v
	}
	if v := req.Header.Get(HeaderDeadlineMS); v != "" && r.DeadlineMS == 0 {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return r, fmt.Errorf("bad %s header %q: %w", HeaderDeadlineMS, v, err)
		}
		r.DeadlineMS = ms
	}
	if v := req.Header.Get(HeaderMaxQueue); v != "" && r.MaxQueue == 0 {
		mq, err := strconv.Atoi(v)
		if err != nil {
			return r, fmt.Errorf("bad %s header %q: %w", HeaderMaxQueue, v, err)
		}
		r.MaxQueue = mq
	}
	return r, nil
}

// resolveExec is the shared exec-policy pipeline of every query
// endpoint: headers folded in, the accepted request recorded to the
// trace (when configured), the handler's default admission bound
// applied, the wire shape resolved against the request arrival time
// read from the handler's clock.
func (h *Handler) resolveExec(req *http.Request, body ExecRequest, members ...QueryRequest) (fam.Exec, error) {
	body, err := body.withHeaders(req)
	if err != nil {
		return fam.Exec{}, err
	}
	h.recordTrace(body, members)
	if body.MaxQueue == 0 {
		body.MaxQueue = h.cfg.MaxQueue
	}
	return body.toExec(h.clock())
}

// recordTrace appends one trace line per accepted query member: the
// semantic request plus the client's post-header-fold scheduling
// knobs, timestamped relative to handler construction.
func (h *Handler) recordTrace(exec ExecRequest, members []QueryRequest) {
	if h.trace == nil || len(members) == 0 {
		return
	}
	tms := float64(h.clock().Sub(h.start)) / 1e6
	for _, m := range members {
		req := load.Request{
			Dataset:        m.Dataset,
			K:              m.K,
			Seed:           m.Seed,
			Epsilon:        m.Epsilon,
			Sigma:          m.Sigma,
			SampleSize:     m.SampleSize,
			DisableSkyline: m.DisableSkyline,
			Set:            m.Set,
			Parallelism:    exec.Parallelism,
			Priority:       exec.Priority,
			DeadlineMS:     exec.DeadlineMS,
			MaxQueue:       exec.MaxQueue,
		}
		if m.Algorithm != fam.GreedyShrink {
			// The zero algorithm is the default either way; explicit
			// non-defaults are recorded by name so replay re-parses them.
			req.Algorithm = m.Algorithm.String()
		}
		_ = h.trace.Record(load.TraceEntry{TMS: tms, Request: req})
	}
}

// BatchSelectRequest is the body of POST /v2/select.
type BatchSelectRequest struct {
	Queries []QueryRequest `json:"queries"`
	Exec    ExecRequest    `json:"exec"`
}

// BatchMemberResponse is one slot of a v2 answer: the SelectResponse
// fields on success, or an error string (with the HTTP status and
// typed code the same failure would have had as a standalone request)
// on a per-member failure.
type BatchMemberResponse struct {
	*SelectResponse
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
	Code   string `json:"code,omitempty"`
}

// BatchSelectResponse is the body returned by POST /v2/select: one slot
// per request member, in order.
type BatchSelectResponse struct {
	Results []BatchMemberResponse `json:"results"`
}

// SelectRequest is the body of POST /v1/select: a single semantic query
// with the execution knobs inlined (the pre-split v1 shape).
type SelectRequest struct {
	Dataset     string  `json:"dataset"`
	K           int     `json:"k"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	Sigma       float64 `json:"sigma,omitempty"`
	SampleSize  int     `json:"sample_size,omitempty"`
	Parallelism int     `json:"parallelism,omitempty"`
	// LazyBatch is accepted and ignored: the field is kept so the frozen
	// v1 wire still decodes requests that carry it.
	LazyBatch      int  `json:"lazy_batch,omitempty"`
	DisableSkyline bool `json:"disable_skyline,omitempty"`
}

// Metrics is the JSON shape of fam.Metrics.
type Metrics struct {
	ARR             float64   `json:"arr"`
	VRR             float64   `json:"vrr"`
	StdDev          float64   `json:"std_dev"`
	MaxRR           float64   `json:"max_rr"`
	Percentiles     []float64 `json:"percentiles"`
	PercentileLevel []float64 `json:"percentile_levels"`
	DegenerateUsers int       `json:"degenerate_users"`
}

func toMetrics(m fam.Metrics) Metrics {
	return Metrics{
		ARR:             m.ARR,
		VRR:             m.VRR,
		StdDev:          m.StdDev,
		MaxRR:           m.MaxRR,
		Percentiles:     m.Percentiles,
		PercentileLevel: m.PercentileLevel,
		DegenerateUsers: m.DegenerateUsers,
	}
}

// TelemetryResponse is the JSON shape of fam.Telemetry: execution
// detail that varies with the exec policy. The top-level fields always
// describe this request's own execution — a result-cache hit reports
// its own near-zero timings, with the computing execution's telemetry
// under Replayed.
type TelemetryResponse struct {
	PreprocessMS    float64 `json:"preprocess_ms"`
	QueryMS         float64 `json:"query_ms"`
	QueueWaitMS     float64 `json:"queue_wait_ms,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	ParallelBatches int     `json:"parallel_batches,omitempty"`
	SerialBatches   int     `json:"serial_batches,omitempty"`
	Iterations      int     `json:"iterations,omitempty"`
	Evaluations     int     `json:"evaluations,omitempty"`
	EvalSkipped     int     `json:"eval_skipped,omitempty"`
	// FromTrajectory marks a GREEDY-SHRINK answer read from the
	// instance's recorded trajectory; its work counters above are those
	// of a run to K.
	FromTrajectory bool `json:"from_trajectory,omitempty"`
	// Replayed is the telemetry of the execution that computed a
	// replayed answer: the result-cache filler, or the batch-dedup
	// leader. Present exactly when the answer was a replay.
	Replayed *TelemetryResponse `json:"replayed,omitempty"`
	// Trace is the member's finished span tree, present when the
	// request set exec.trace.
	Trace *fam.TraceSpan `json:"trace,omitempty"`
}

func toTelemetry(t *fam.Telemetry, withTrace bool) *TelemetryResponse {
	if t == nil {
		return nil
	}
	out := &TelemetryResponse{
		PreprocessMS:    float64(t.Preprocess) / float64(time.Millisecond),
		QueryMS:         float64(t.Query) / float64(time.Millisecond),
		QueueWaitMS:     float64(t.QueueWait) / float64(time.Millisecond),
		Workers:         t.Stats.Workers,
		ParallelBatches: t.Stats.ParallelBatches,
		SerialBatches:   t.Stats.SerialBatches,
		Iterations:      t.Stats.Iterations,
		Evaluations:     t.Stats.Evaluations,
		EvalSkipped:     t.Stats.EvalSkipped,
		FromTrajectory:  t.FromTrajectory,
	}
	if t.Replay != nil {
		out.Replayed = toTelemetry(t.Replay, false)
	}
	if withTrace {
		out.Trace = t.Trace
	}
	return out
}

// SelectResponse is the body returned by POST /v1/select and the success
// shape of a v2 member. ExactARR is negative when the algorithm does not
// compute an exact value. Telemetry is populated on the v2 surface only.
type SelectResponse struct {
	Dataset     string   `json:"dataset"`
	Algorithm   string   `json:"algorithm"`
	K           int      `json:"k"`
	Indices     []int    `json:"indices"`
	Labels      []string `json:"labels"`
	Metrics     Metrics  `json:"metrics"`
	ExactARR    float64  `json:"exact_arr"`
	SkylineSize int      `json:"skyline_size"`
	// CoresetSize is the candidate count after the ε-kernel prepass;
	// omitted when the query did not enable Coreset.
	CoresetSize  *int               `json:"coreset_size,omitempty"`
	Cached       bool               `json:"cached"`
	PreprocessMS float64            `json:"preprocess_ms"`
	QueryMS      float64            `json:"query_ms"`
	Telemetry    *TelemetryResponse `json:"telemetry,omitempty"`
}

// EvaluateRequest is the body of POST /v1/evaluate: score Set (dataset
// row indices) under the dataset's distribution.
type EvaluateRequest struct {
	Dataset    string  `json:"dataset"`
	Set        []int   `json:"set"`
	Seed       uint64  `json:"seed,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Sigma      float64 `json:"sigma,omitempty"`
	SampleSize int     `json:"sample_size,omitempty"`
}

// EvaluateResponse is the body returned by POST /v1/evaluate.
type EvaluateResponse struct {
	Dataset string  `json:"dataset"`
	Set     []int   `json:"set"`
	Metrics Metrics `json:"metrics"`
}

// DatasetsResponse is the body returned by GET /v1/datasets.
type DatasetsResponse struct {
	Datasets []fam.DatasetInfo `json:"datasets"`
}

// UploadResponse is the body returned by POST /v1/datasets on success.
type UploadResponse struct {
	Dataset fam.DatasetInfo `json:"dataset"`
}

// HTTPStats counts requests by outcome since the handler was built.
type HTTPStats struct {
	Requests    uint64 `json:"requests"`
	ClientError uint64 `json:"client_errors"`
	ServerError uint64 `json:"server_errors"`
	// Uploads counts datasets accepted through POST /v1/datasets.
	Uploads uint64 `json:"uploads"`
}

// StatsResponse is the body returned by GET /v1/stats.
type StatsResponse struct {
	Engine fam.EngineStats `json:"engine"`
	HTTP   HTTPStats       `json:"http"`
}

// ErrorResponse is the body of every non-2xx /v1 answer (the frozen
// shim envelope).
type ErrorResponse struct {
	Error string `json:"error"`
}

// ErrorV2 is the typed error envelope of every non-2xx /v2 answer: a
// stable machine-matchable code plus the human-readable message.
// RequestID identifies the failed request in the server's structured
// request log.
type ErrorV2 struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// The stable error codes of the v2 envelope.
const (
	CodeBadRequest      = "bad_request"
	CodeNotFound        = "not_found"
	CodeConflict        = "conflict"
	CodeForbidden       = "forbidden"
	CodePayloadTooLarge = "payload_too_large"
	CodeShed            = "shed"
	CodeUnavailable     = "unavailable"
	CodeInternal        = "internal"
)

// errorCode maps an HTTP status to its v2 envelope code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusForbidden:
		return CodeForbidden
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return CodeShed
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// HandlerConfig tunes the HTTP front end. The zero value is
// serviceable.
type HandlerConfig struct {
	// MaxUploadBytes caps the CSV body of POST /v1/datasets
	// (0 = DefaultMaxUploadBytes, negative = uploads disabled).
	MaxUploadBytes int64
	// MaxBatchQueries caps the member count of one POST /v2/select
	// (0 = DefaultMaxBatchQueries).
	MaxBatchQueries int
	// MaxQueue is the server-side admission bound applied to every
	// select/evaluate request that does not set its own max_queue (body
	// or header): a request arriving while more helper requests than
	// this are queued on the engine's pool is shed with 429. Zero
	// disables the server-side bound.
	MaxQueue int
	// Clock supplies the handler's notion of "now" — the arrival time
	// relative deadlines resolve against, and the timebase of trace
	// timestamps. Nil uses time.Now; tests inject a fixed clock to pin
	// deadline resolution.
	Clock func() time.Time
	// Trace, when set, records every accepted query request (v1
	// select/evaluate and each v2 batch member) as one JSONL
	// internal/load.TraceEntry line: the request's offset from handler
	// construction in ms, the semantic query, and the client's
	// scheduling knobs after header folding (the server-side MaxQueue
	// default is handler config, not client intent, and is not
	// recorded). famload replays these traces. The writer is serialized
	// internally; any io.Writer works.
	Trace io.Writer
	// TraceLog, when set, receives one JSON line per sinked span tree:
	// sampled query requests (every TraceSample-th) and every slow
	// query. The writer is serialized internally.
	TraceLog io.Writer
	// TraceSample sinks every Nth query request's span tree to
	// TraceLog (0 = sink only slow queries).
	TraceSample int
	// SlowQuery is the latency threshold above which a query request
	// counts as slow and its span tree is always sinked to TraceLog.
	// When set, every query request is traced, so the tree exists if
	// the request turns out slow. Zero disables slow-query capture.
	SlowQuery time.Duration
	// Log, when set, receives one structured line per served request:
	// request_id, trace_id (empty when untraced), endpoint, status,
	// dur_ms.
	Log *slog.Logger
}

// Default limits of HandlerConfig's zero values.
const (
	DefaultMaxUploadBytes  = 32 << 20 // 32 MiB of CSV
	DefaultMaxBatchQueries = 256
)

// Handler serves the /v1 and /v2 API for one Engine.
type Handler struct {
	engine *fam.Engine
	cfg    HandlerConfig
	mux    *http.ServeMux

	// clock is cfg.Clock or time.Now; start anchors trace timestamps.
	clock func() time.Time
	start time.Time
	trace *load.TraceWriter

	// runID prefixes request IDs so they stay unique across restarts in
	// aggregated logs; reqSeq numbers the requests of this run.
	runID    string
	reqSeq   atomic.Uint64
	traceLog *traceSink
	log      *slog.Logger

	requests     atomic.Uint64
	clientErrors atomic.Uint64
	serverErrors atomic.Uint64
	uploads      atomic.Uint64
	sampleSeq    atomic.Uint64
	traceSpans   atomic.Uint64
	slowQueries  atomic.Uint64

	// metrics backs GET /metrics: per-endpoint request counters and
	// latency histograms (see metrics.go for the full series list).
	metrics prom.Requests

	// shed backs /healthz's windowed shed rate: per-second buckets of
	// query requests and their 429 answers (see health.go).
	shed shedWindow
}

// NewHandler builds the routes over the engine with default limits. The
// caller keeps ownership of the engine's lifecycle.
func NewHandler(e *fam.Engine) *Handler {
	return NewHandlerConfig(e, HandlerConfig{})
}

// NewHandlerConfig builds the routes over the engine with explicit
// limits.
func NewHandlerConfig(e *fam.Engine, cfg HandlerConfig) *Handler {
	if cfg.MaxUploadBytes == 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.MaxBatchQueries <= 0 {
		cfg.MaxBatchQueries = DefaultMaxBatchQueries
	}
	h := &Handler{engine: e, cfg: cfg, mux: http.NewServeMux()}
	h.clock = cfg.Clock
	if h.clock == nil {
		h.clock = time.Now
	}
	h.start = h.clock()
	if cfg.Trace != nil {
		h.trace = load.NewTraceWriter(cfg.Trace)
	}
	h.runID = obs.NewTraceID()[:8]
	if cfg.TraceLog != nil {
		h.traceLog = &traceSink{w: cfg.TraceLog}
	}
	h.log = cfg.Log
	h.mux.HandleFunc("GET /v1/datasets", h.handleDatasets)
	h.mux.HandleFunc("POST /v1/datasets", func(w http.ResponseWriter, r *http.Request) { h.handleUpload(v1Errors, w, r) })
	h.mux.HandleFunc("POST /v1/select", h.handleSelect)
	h.mux.HandleFunc("POST /v1/evaluate", h.handleEvaluate)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.mux.HandleFunc("POST /v2/select", h.handleBatchSelect)
	h.mux.HandleFunc("GET /v2/datasets", h.handleDatasets)
	h.mux.HandleFunc("POST /v2/datasets", func(w http.ResponseWriter, r *http.Request) { h.handleUpload(v2Errors, w, r) })
	h.mux.HandleFunc("GET /v2/stats", h.handleStats)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	return h
}

// errorDialect selects the wire shape of failure bodies: the frozen v1
// {error} envelope or the typed v2 {code, message} envelope.
type errorDialect int

const (
	v1Errors errorDialect = iota
	v2Errors
)

// ServeHTTP implements http.Handler. It is the observability
// middleware of every route: each request gets an ID, the /metrics
// per-endpoint accounting under its matched route pattern, and — when
// the client sent a tracing header, the request was sampled, or
// slow-query capture is on — a span-tree collector whose root
// http.request span encloses the whole request. Traced responses echo
// X-Fam-Trace and traceparent; sampled and slow trees are sinked to
// the JSONL trace log; every request writes one structured log line.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	_, pattern := h.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	reqID := fmt.Sprintf("%s-%06d", h.runID, h.reqSeq.Add(1))
	ctx := withRequestID(r.Context(), reqID)

	traceID, remoteSpan, clientArmed := traceHeaders(r)
	query := isQueryPattern(pattern)
	sampled := false
	if query && h.traceLog != nil && h.cfg.TraceSample > 0 {
		sampled = h.sampleSeq.Add(1)%uint64(h.cfg.TraceSample) == 0
	}
	var col *obs.Collector
	var root *obs.Span
	if clientArmed || sampled || (query && h.cfg.SlowQuery > 0) {
		col = obs.NewCollector(traceID)
		col.SetRemoteParent(remoteSpan)
		root = col.StartSpan("http.request")
		root.SetAttr("endpoint", pattern)
		ctx = obs.NewContext(ctx, root)
		// Identity headers go out before the handler writes the body,
		// so the client learns its trace ID even on failures.
		w.Header().Set(HeaderTrace, col.TraceID())
		w.Header().Set(HeaderTraceparent, obs.FormatTraceparent(col.TraceID(), root.SpanID))
	}

	rec := &prom.StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
	start := h.clock()
	h.mux.ServeHTTP(rec, r.WithContext(ctx))
	dur := h.clock().Sub(start)
	h.metrics.Record(pattern, rec.Status, dur.Seconds())
	if query {
		h.shed.note(h.clock(), rec.Status == http.StatusTooManyRequests)
	}

	if root != nil {
		root.SetAttrInt("status", rec.Status)
		root.End()
		h.traceSpans.Add(uint64(col.SpanCount()))
		slow := query && h.cfg.SlowQuery > 0 && dur >= h.cfg.SlowQuery
		if slow {
			h.slowQueries.Add(1)
		}
		if h.traceLog != nil && (sampled || slow) {
			h.traceLog.write(traceLogEntry{
				Time:      start,
				TraceID:   col.TraceID(),
				RequestID: reqID,
				Endpoint:  pattern,
				Status:    rec.Status,
				DurMS:     float64(dur) / 1e6,
				Slow:      slow,
				Sampled:   sampled,
				Spans:     col.Tree().JSON(),
			})
		}
	}
	if h.log != nil {
		h.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", reqID),
			slog.String("trace_id", col.TraceID()),
			slog.String("endpoint", pattern),
			slog.Int("status", rec.Status),
			slog.Float64("dur_ms", float64(dur)/1e6))
	}
}

func (h *Handler) handleDatasets(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, DatasetsResponse{Datasets: h.engine.Datasets()})
}

// memberResponse renders one answered member — the shared shape of a
// v2 slot and a v1 select body. The top-level PreprocessMS/QueryMS
// keep the frozen v1 semantics — a cache hit carries the timings of
// the computation it replays — so they read through Replay; the
// telemetry block distinguishes the hit's own execution from the
// replayed one.
func memberResponse(member QueryRequest, res *fam.Result, tel *fam.Telemetry, withTrace bool) *SelectResponse {
	resp := &SelectResponse{
		Dataset:     member.Dataset,
		Algorithm:   member.Algorithm.String(),
		K:           member.K,
		Indices:     res.Indices,
		Labels:      res.Labels,
		Metrics:     toMetrics(res.Metrics),
		ExactARR:    res.ExactARR,
		SkylineSize: res.SkylineSize,
		Cached:      res.Cached,
		Telemetry:   toTelemetry(tel, withTrace),
	}
	if res.CoresetSize >= 0 {
		cs := res.CoresetSize
		resp.CoresetSize = &cs
	}
	if tel != nil {
		src := tel
		if tel.Replay != nil {
			src = tel.Replay
		}
		resp.PreprocessMS = float64(src.Preprocess) / float64(time.Millisecond)
		resp.QueryMS = float64(src.Query) / float64(time.Millisecond)
	}
	return resp
}

// runBatch executes a v2 member array against the engine's batch
// planner. Member successes are rendered as SelectResponses, member
// failures keep their slot with the error, the status, and the typed
// code the same failure would have had standalone.
func (h *Handler) runBatch(r *http.Request, members []QueryRequest, exec fam.Exec, withTrace bool) ([]BatchMemberResponse, error) {
	queries := make([]fam.Query, len(members))
	for i := range members {
		queries[i] = members[i].toQuery()
	}
	slots, err := h.engine.SelectBatch(r.Context(), queries, exec)
	if err != nil {
		return nil, err
	}
	out := make([]BatchMemberResponse, len(slots))
	for i, slot := range slots {
		if slot.Err != nil {
			status := statusOf(slot.Err)
			out[i] = BatchMemberResponse{Error: slot.Err.Error(), Status: status, Code: errorCode(status)}
			continue
		}
		out[i] = BatchMemberResponse{SelectResponse: memberResponse(members[i], slot.Result, slot.Telemetry, withTrace)}
	}
	return out, nil
}

func (h *Handler) handleBatchSelect(w http.ResponseWriter, r *http.Request) {
	var req BatchSelectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		h.writeErrorDialect(v2Errors, w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		h.writeErrorDialect(v2Errors, w, r, http.StatusBadRequest, errors.New("empty batch: queries must be non-empty"))
		return
	}
	if len(req.Queries) > h.cfg.MaxBatchQueries {
		h.writeErrorDialect(v2Errors, w, r, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), h.cfg.MaxBatchQueries))
		return
	}
	exec, err := h.resolveExec(r, req.Exec, req.Queries...)
	if err != nil {
		h.writeErrorDialect(v2Errors, w, r, http.StatusBadRequest, err)
		return
	}
	if req.Exec.Trace && !obs.Active(r.Context()) {
		// The body asked for a trace but no header (or server knob)
		// armed one: arm a request-local collector so the engine
		// subtree exists, and tell the client its trace ID.
		col := obs.NewCollector("")
		w.Header().Set(HeaderTrace, col.TraceID())
		r = r.WithContext(obs.NewCollectorContext(r.Context(), col))
	}
	results, err := h.runBatch(r, req.Queries, exec, req.Exec.Trace)
	if err != nil {
		h.writeEngineErrorDialect(v2Errors, w, r, err)
		return
	}
	queries := make([]fam.Query, len(req.Queries))
	for i := range req.Queries {
		queries[i] = req.Queries[i].toQuery()
	}
	h.setInstanceKeyHeader(w, queries...)
	h.writeJSON(w, http.StatusOK, BatchSelectResponse{Results: results})
}

// handleSelect is the v1 shim: the combined request is split into its
// semantic and execution halves (the v2 member + exec types) and served
// through the engine's Select path — the same result cache the batch
// layer fills, without counting as a batch in the stats.
func (h *Handler) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		h.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	member := QueryRequest{
		Dataset:        req.Dataset,
		K:              req.K,
		Seed:           req.Seed,
		Epsilon:        req.Epsilon,
		Sigma:          req.Sigma,
		SampleSize:     req.SampleSize,
		DisableSkyline: req.DisableSkyline,
	}
	if req.Algorithm != "" {
		algo, err := fam.ParseAlgorithm(req.Algorithm)
		if err != nil {
			h.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		member.Algorithm = algo
	}
	exec, err := h.resolveExec(r, ExecRequest{Parallelism: req.Parallelism}, member)
	if err != nil {
		h.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	res, tel, err := h.engine.Select(r.Context(), member.toQuery(), exec)
	if err != nil {
		h.writeEngineError(w, r, err)
		return
	}
	resp := memberResponse(member, res, tel, false)
	resp.Telemetry = nil // telemetry detail is a v2-surface feature
	h.setInstanceKeyHeader(w, member.toQuery())
	h.writeJSON(w, http.StatusOK, resp)
}

// handleEvaluate is the v1 shim: the request becomes an explicit-set
// Query through the engine's Evaluate path, rendered in the v1 shape.
func (h *Handler) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		h.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	member := QueryRequest{
		Dataset:    req.Dataset,
		Seed:       req.Seed,
		Epsilon:    req.Epsilon,
		Sigma:      req.Sigma,
		SampleSize: req.SampleSize,
		Set:        req.Set,
	}
	q := member.toQuery()
	if q.ExplicitSet == nil {
		// A missing set must fail set validation, not K validation.
		q.ExplicitSet = []int{}
	}
	exec, err := h.resolveExec(r, ExecRequest{}, member)
	if err != nil {
		h.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	m, err := h.engine.Evaluate(r.Context(), q, exec)
	if err != nil {
		h.writeEngineError(w, r, err)
		return
	}
	h.setInstanceKeyHeader(w, q)
	h.writeJSON(w, http.StatusOK, EvaluateResponse{
		Dataset: req.Dataset,
		Set:     req.Set,
		Metrics: toMetrics(m),
	})
}

// handleUpload ingests a CSV dataset body (header row; optional leading
// "label" column) into the engine's registry under ?name=, with the
// distribution chosen by ?dist= (uniform linear weights by default,
// "ces:<rho>" for concave CES utilities).
func (h *Handler) handleUpload(d errorDialect, w http.ResponseWriter, r *http.Request) {
	if h.cfg.MaxUploadBytes < 0 {
		h.writeErrorDialect(d, w, r, http.StatusForbidden, errors.New("dataset uploads are disabled"))
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		h.writeErrorDialect(d, w, r, http.StatusBadRequest, errors.New("missing required query parameter: name"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, h.cfg.MaxUploadBytes)
	ds, err := fam.LoadCSV(body, name)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			h.writeErrorDialect(d, w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("dataset exceeds the %d-byte upload cap", h.cfg.MaxUploadBytes))
			return
		}
		h.writeErrorDialect(d, w, r, http.StatusBadRequest, fmt.Errorf("parsing CSV: %w", err))
		return
	}
	dist, err := uploadDistribution(r.URL.Query().Get("dist"), ds.Dim())
	if err != nil {
		h.writeErrorDialect(d, w, r, http.StatusBadRequest, err)
		return
	}
	if err := h.engine.Register(name, ds, dist); err != nil {
		if errors.Is(err, fam.ErrDuplicateDataset) {
			h.writeErrorDialect(d, w, r, http.StatusConflict, err)
			return
		}
		h.writeEngineErrorDialect(d, w, r, err)
		return
	}
	h.uploads.Add(1)
	h.writeJSON(w, http.StatusCreated, UploadResponse{Dataset: fam.DatasetInfo{
		Name:         name,
		N:            ds.N(),
		Dim:          ds.Dim(),
		Distribution: dist.Name(),
	}})
}

// uploadDistribution resolves the ?dist= parameter of an upload:
// "" or "linear" (simplex-uniform linear), "box" (box-uniform linear),
// or "ces:<rho>".
func uploadDistribution(spec string, dim int) (fam.Distribution, error) {
	switch {
	case spec == "" || spec == "linear":
		return fam.UniformLinear(dim)
	case spec == "box":
		return fam.UniformBoxLinear(dim)
	case len(spec) > 4 && spec[:4] == "ces:":
		rho, err := strconv.ParseFloat(spec[4:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ces rho %q: %w", spec[4:], err)
		}
		return fam.CESUniform(dim, rho)
	default:
		return nil, fmt.Errorf("unknown distribution spec %q (want linear|box|ces:<rho>)", spec)
	}
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, StatsResponse{
		Engine: h.engine.Stats(),
		HTTP: HTTPStats{
			Requests:    h.requests.Load(),
			ClientError: h.clientErrors.Load(),
			ServerError: h.serverErrors.Load(),
			Uploads:     h.uploads.Load(),
		},
	})
}

// statusOf maps an engine error to its HTTP status: bad requests and
// malformed sets are 400, unknown datasets 404, admission-shed work
// 429 (back off and retry), a deadline that expired mid-flight or a
// closed engine 503, anything else 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, fam.ErrBadOptions), errors.Is(err, fam.ErrInvalidSet), errors.Is(err, fam.ErrNilArgument):
		return http.StatusBadRequest
	case errors.Is(err, fam.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, fam.ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, fam.ErrEngineClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeEngineError maps whole-call engine errors to HTTP statuses in
// the v1 dialect; a canceled request gets no body (the client is gone).
func (h *Handler) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	h.writeEngineErrorDialect(v1Errors, w, r, err)
}

func (h *Handler) writeEngineErrorDialect(d errorDialect, w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil && !errors.Is(r.Context().Err(), context.DeadlineExceeded) {
		h.clientErrors.Add(1)
		return
	}
	h.writeErrorDialect(d, w, r, statusOf(err), err)
}

func (h *Handler) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	h.writeErrorDialect(v1Errors, w, r, status, err)
}

// writeErrorDialect renders a failure in the endpoint's envelope: the
// frozen v1 {error} shape or the typed v2 {code, message, request_id}
// shape.
func (h *Handler) writeErrorDialect(d errorDialect, w http.ResponseWriter, r *http.Request, status int, err error) {
	if status >= 500 {
		h.serverErrors.Add(1)
	} else {
		h.clientErrors.Add(1)
	}
	if d == v2Errors {
		h.writeJSON(w, status, ErrorV2{
			Code:      errorCode(status),
			Message:   err.Error(),
			RequestID: requestIDFrom(r.Context()),
		})
		return
	}
	h.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (h *Handler) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
