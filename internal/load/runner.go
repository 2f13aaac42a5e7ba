package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fam "github.com/regretlab/fam"
)

// Outcome is the per-request result the runner records: the fields the
// fitness report aggregates, plus the deterministic triple
// (Status, Cached, Shed) that the replay-determinism guarantee covers
// (latencies are wall-clock measurements and vary run to run).
type Outcome struct {
	// I is the request's index in the trace.
	I int `json:"i"`
	// Status is the HTTP-equivalent outcome code (200 on success, 429
	// shed, 503 deadline/unavailable, 400/404 client errors, 500
	// otherwise) — identical whether the engine was driven in-process
	// or over HTTP.
	Status int `json:"status"`
	// Cached marks result-cache hits.
	Cached bool `json:"cached,omitempty"`
	// Shed marks admission-control rejections (Status 429).
	Shed bool `json:"shed,omitempty"`
	// Warm marks warmup-window requests: executed (they warm caches and
	// queues) but excluded from the measurement report.
	Warm bool `json:"warm,omitempty"`
	// Priority is the request's scheduling class ("" = normal).
	Priority string `json:"priority,omitempty"`
	// LatencyMS is the request's end-to-end latency as observed by the
	// runner; QueueWaitMS the engine-attributed scheduling wait
	// (Telemetry.QueueWait), when the target reports it.
	LatencyMS   float64 `json:"latency_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// Err carries the failure message of non-200 outcomes.
	Err string `json:"error,omitempty"`
}

// Target executes one traced request and reports its outcome fields
// (Status, Cached, Shed, QueueWaitMS, Err); the runner fills I,
// Priority, Warm, and LatencyMS.
type Target interface {
	Do(ctx context.Context, req Request) Outcome
}

// statusOf mirrors the serve layer's error→status mapping so the
// in-process engine target and the HTTP target report identical
// outcome codes for the same failure.
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

// EngineTarget drives a fam.Engine in-process — no HTTP between the
// generator and the scheduler, so the harness measures the engine, not
// the network stack.
type EngineTarget struct {
	Engine *fam.Engine
	// Clock resolves relative deadlines; nil = time.Now.
	Clock func() time.Time
}

// Do implements Target on the engine's Select/Evaluate paths.
func (t EngineTarget) Do(ctx context.Context, req Request) Outcome {
	now := time.Now
	if t.Clock != nil {
		now = t.Clock
	}
	exec, err := req.Exec(now())
	if err != nil {
		return Outcome{Status: http.StatusBadRequest, Err: err.Error()}
	}
	if req.Set != nil {
		_, err := t.Engine.Evaluate(ctx, req.Query(), exec)
		return outcomeOf(err, false, 0)
	}
	res, tel, err := t.Engine.Select(ctx, req.Query(), exec)
	if err != nil {
		return outcomeOf(err, false, 0)
	}
	var wait time.Duration
	if tel != nil {
		wait = tel.QueueWait
	}
	return outcomeOf(nil, res.Cached, wait)
}

func outcomeOf(err error, cached bool, wait time.Duration) Outcome {
	if err != nil {
		status := statusOf(err)
		return Outcome{Status: status, Shed: status == http.StatusTooManyRequests, Err: err.Error()}
	}
	return Outcome{Status: http.StatusOK, Cached: cached, QueueWaitMS: float64(wait) / 1e6}
}

// HTTPTarget drives a famserve instance through its v2 surface: each
// request becomes a one-member POST /v2/select batch, so the traced
// scheduling knobs travel in the exec block exactly as a real client
// would send them.
type HTTPTarget struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// Client is the HTTP client; nil uses http.DefaultClient.
	Client *http.Client
}

// The wire shapes HTTPTarget speaks. They structurally mirror the
// serve package's v2 types; load deliberately does not import serve
// (serve imports load to record traces).
type (
	httpBatchRequest struct {
		Queries []Request       `json:"queries"`
		Exec    httpExecRequest `json:"exec"`
	}
	httpExecRequest struct {
		Parallelism int    `json:"parallelism,omitempty"`
		Priority    string `json:"priority,omitempty"`
		DeadlineMS  int64  `json:"deadline_ms,omitempty"`
		MaxQueue    int    `json:"max_queue,omitempty"`
	}
	httpBatchResponse struct {
		Results []struct {
			Cached    bool   `json:"cached"`
			Error     string `json:"error"`
			Status    int    `json:"status"`
			Telemetry *struct {
				QueueWaitMS float64 `json:"queue_wait_ms"`
			} `json:"telemetry"`
		} `json:"results"`
	}
	httpErrorV2 struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
)

// Do implements Target over POST /v2/select.
func (t HTTPTarget) Do(ctx context.Context, req Request) Outcome {
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	// The member carries the semantic query; the scheduling knobs ride
	// the exec block (Request embeds both, and the member's exec fields
	// are omitempty-zero after this split).
	member := req
	member.Parallelism, member.Priority, member.DeadlineMS, member.MaxQueue = 0, "", 0, 0
	body, err := json.Marshal(httpBatchRequest{
		Queries: []Request{member},
		Exec: httpExecRequest{
			Parallelism: req.Parallelism,
			Priority:    req.Priority,
			DeadlineMS:  req.DeadlineMS,
			MaxQueue:    req.MaxQueue,
		},
	})
	if err != nil {
		return Outcome{Status: http.StatusBadRequest, Err: err.Error()}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(t.BaseURL, "/")+"/v2/select", bytes.NewReader(body))
	if err != nil {
		return Outcome{Status: http.StatusBadRequest, Err: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return Outcome{Status: http.StatusBadGateway, Err: err.Error()}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return Outcome{Status: http.StatusBadGateway, Err: err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		var e httpErrorV2
		msg := strings.TrimSpace(string(payload))
		if json.Unmarshal(payload, &e) == nil && e.Message != "" {
			msg = e.Message
		}
		return Outcome{
			Status: resp.StatusCode,
			Shed:   resp.StatusCode == http.StatusTooManyRequests,
			Err:    msg,
		}
	}
	var batch httpBatchResponse
	if err := json.Unmarshal(payload, &batch); err != nil {
		return Outcome{Status: http.StatusBadGateway, Err: fmt.Sprintf("decoding batch response: %v", err)}
	}
	if len(batch.Results) != 1 {
		return Outcome{Status: http.StatusBadGateway, Err: fmt.Sprintf("expected 1 result slot, got %d", len(batch.Results))}
	}
	slot := batch.Results[0]
	if slot.Error != "" {
		status := slot.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		return Outcome{Status: status, Shed: status == http.StatusTooManyRequests, Err: slot.Error}
	}
	out := Outcome{Status: http.StatusOK, Cached: slot.Cached}
	if slot.Telemetry != nil {
		out.QueueWaitMS = slot.Telemetry.QueueWaitMS
	}
	return out
}

// MultiTarget stripes requests across several targets round-robin —
// the direct-to-replicas baseline a through-router run is compared
// against: same workload, no routing policy, so the delta in cache
// hit rate is attributable to routing alone.
type MultiTarget struct {
	targets []Target
	next    atomic.Uint64
}

// NewMultiTarget builds a round-robin fan over the targets.
func NewMultiTarget(targets ...Target) (*MultiTarget, error) {
	if len(targets) == 0 {
		return nil, errors.New("load: MultiTarget needs at least one target")
	}
	for _, t := range targets {
		if t == nil {
			return nil, errors.New("load: MultiTarget got a nil target")
		}
	}
	return &MultiTarget{targets: append([]Target(nil), targets...)}, nil
}

// Do implements Target by forwarding to the next target in rotation.
func (t *MultiTarget) Do(ctx context.Context, req Request) Outcome {
	return t.targets[(t.next.Add(1)-1)%uint64(len(t.targets))].Do(ctx, req)
}

// RunConfig tunes a trace run.
type RunConfig struct {
	// Warmup marks every request whose trace offset falls inside this
	// window as Warm: executed, but excluded from the measurement
	// report.
	Warmup time.Duration
	// Paced replays the trace open-loop at its recorded offsets (each
	// request fires at its own t_ms regardless of earlier completions).
	// Unpaced runs are sequential — one request at a time, in trace
	// order — which is what makes replay outcomes deterministic.
	Paced bool
	// Speed scales paced time: 2 replays twice as fast. 0 = 1.
	Speed float64
}

// Run drives the trace against the target and returns the per-request
// outcomes (in trace order) and the wall-clock span of the run.
func Run(ctx context.Context, target Target, trace []TraceEntry, cfg RunConfig) ([]Outcome, time.Duration, error) {
	if target == nil {
		return nil, 0, errors.New("load: nil target")
	}
	if len(trace) == 0 {
		return nil, 0, errors.New("load: empty trace")
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
	}
	warmupMS := float64(cfg.Warmup) / 1e6
	outcomes := make([]Outcome, len(trace))
	start := time.Now()
	runOne := func(i int) {
		t0 := time.Now()
		o := target.Do(ctx, trace[i].Request)
		o.I = i
		o.LatencyMS = float64(time.Since(t0)) / 1e6
		o.Priority = trace[i].Priority
		o.Warm = trace[i].TMS < warmupMS
		outcomes[i] = o
	}
	if !cfg.Paced {
		for i := range trace {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			runOne(i)
		}
		return outcomes, time.Since(start), nil
	}
	var wg sync.WaitGroup
	for i := range trace {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			due := start.Add(time.Duration(trace[i].TMS / speed * float64(time.Millisecond)))
			if d := time.Until(due); d > 0 {
				timer := time.NewTimer(d)
				defer timer.Stop()
				select {
				case <-timer.C:
				case <-ctx.Done():
					outcomes[i] = Outcome{I: i, Status: http.StatusServiceUnavailable,
						Priority: trace[i].Priority, Warm: trace[i].TMS < warmupMS, Err: ctx.Err().Error()}
					return
				}
			}
			runOne(i)
		}(i)
	}
	wg.Wait()
	return outcomes, time.Since(start), nil
}
