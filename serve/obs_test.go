package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/obs"
)

// newObsServer builds a test server over the hotels fixture with the
// given observability config.
func newObsServer(t *testing.T, cfg HandlerConfig) *httptest.Server {
	t.Helper()
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
	srv := httptest.NewServer(NewHandlerConfig(engine, cfg))
	t.Cleanup(srv.Close)
	return srv
}

func batchBody() BatchSelectRequest {
	return BatchSelectRequest{
		Queries: []QueryRequest{{Dataset: "hotels", K: 3, Seed: 7, SampleSize: 80}},
		Exec:    ExecRequest{Trace: true},
	}
}

// A client-supplied trace identity survives the round trip: the
// X-Fam-Trace ID (or the traceparent trace ID) is adopted, echoed in
// both response headers, and stamps every span of the response trace.
func TestServeTraceIDRoundTrip(t *testing.T) {
	srv := newObsServer(t, HandlerConfig{})
	traceID := strings.Repeat("cd", 16)

	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v2/select", jsonBody(t, batchBody()))
	hreq.Header.Set(HeaderTrace, traceID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderTrace); got != traceID {
		t.Fatalf("%s echoed %q, want %q", HeaderTrace, got, traceID)
	}
	tp := resp.Header.Get(HeaderTraceparent)
	if gotID, _, ok := obs.ParseTraceparent(tp); !ok || gotID != traceID {
		t.Fatalf("response traceparent %q does not carry trace %s", tp, traceID)
	}
	var out BatchSelectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	tr := out.Results[0].Telemetry.Trace
	if tr == nil || tr.TraceID != traceID {
		t.Fatalf("member trace = %+v, want subtree under trace %s", tr, traceID)
	}
	if tr.Name != "engine.select" {
		t.Fatalf("member trace root = %q, want engine.select", tr.Name)
	}

	// W3C form: the traceparent trace ID is adopted and the local tree
	// hangs under the remote caller's span.
	remoteID := strings.Repeat("12", 16)
	hreq2, _ := http.NewRequest(http.MethodPost, srv.URL+"/v2/select", jsonBody(t, batchBody()))
	hreq2.Header.Set(HeaderTraceparent, obs.FormatTraceparent(remoteID, "00000000000000aa"))
	resp2, err := http.DefaultClient.Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(HeaderTrace); got != remoteID {
		t.Fatalf("traceparent trace ID not adopted: %s = %q, want %q", HeaderTrace, got, remoteID)
	}

	// No headers, exec.trace=true: the request is armed locally and the
	// assigned (fresh, valid) ID is announced.
	resp3, err := http.Post(srv.URL+"/v2/select", "application/json", jsonBody(t, batchBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	assigned := resp3.Header.Get(HeaderTrace)
	if !obs.ValidTraceID(assigned) {
		t.Fatalf("body-armed trace announced invalid ID %q", assigned)
	}
	var out3 BatchSelectResponse
	if err := json.NewDecoder(resp3.Body).Decode(&out3); err != nil {
		t.Fatal(err)
	}
	if tr := out3.Results[0].Telemetry.Trace; tr == nil || tr.TraceID != assigned {
		t.Fatalf("body-armed member trace = %+v, want trace %s", tr, assigned)
	}

	// Without exec.trace, telemetry carries no span tree even when the
	// request was traced by header.
	plain := batchBody()
	plain.Exec.Trace = false
	hreq4, _ := http.NewRequest(http.MethodPost, srv.URL+"/v2/select", jsonBody(t, plain))
	hreq4.Header.Set(HeaderTrace, traceID)
	resp4, err := http.DefaultClient.Do(hreq4)
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var out4 BatchSelectResponse
	if err := json.NewDecoder(resp4.Body).Decode(&out4); err != nil {
		t.Fatal(err)
	}
	if out4.Results[0].Telemetry.Trace != nil {
		t.Fatal("telemetry carries a trace without exec.trace")
	}
}

// With a slow-query threshold configured, every query request is
// traced and any that exceeds the threshold is sinked to the JSONL
// trace log — under the same trace ID the response announced — and
// counted in /metrics.
func TestServeSlowQueryCapture(t *testing.T) {
	var sink bytes.Buffer
	srv := newObsServer(t, HandlerConfig{TraceLog: &sink, SlowQuery: time.Nanosecond})
	traceID := strings.Repeat("ef", 16)

	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/select",
		jsonBody(t, SelectRequest{Dataset: "hotels", K: 3, Seed: 7, SampleSize: 80}))
	hreq.Header.Set(HeaderTrace, traceID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var entry struct {
		TraceID   string `json:"trace_id"`
		RequestID string `json:"request_id"`
		Endpoint  string `json:"endpoint"`
		Status    int    `json:"status"`
		Slow      bool   `json:"slow"`
		Spans     *struct {
			Name     string `json:"name"`
			Children []any  `json:"children"`
		} `json:"spans"`
	}
	line, err := bufio.NewReader(bytes.NewReader(sink.Bytes())).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no trace-log line captured: %v", err)
	}
	if err := json.Unmarshal(line, &entry); err != nil {
		t.Fatalf("trace-log line is not JSON: %v\n%s", err, line)
	}
	if entry.TraceID != traceID || !entry.Slow || entry.Endpoint != "POST /v1/select" || entry.Status != http.StatusOK {
		t.Fatalf("trace-log entry = %+v", entry)
	}
	if entry.RequestID == "" {
		t.Fatal("trace-log entry has no request_id")
	}
	if entry.Spans == nil || entry.Spans.Name != "http.request" || len(entry.Spans.Children) == 0 {
		t.Fatalf("trace-log span tree = %+v, want http.request root with children", entry.Spans)
	}

	// The non-query /metrics scrape itself is never slow-captured, and
	// it reports the slow query plus the new build/runtime families.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fam_slow_queries_total 1",
		"fam_build_info{go_version=",
		"fam_go_goroutines ",
		"fam_go_heap_alloc_bytes ",
		"fam_go_gc_pause_seconds_total ",
		"fam_trace_spans_total ",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Count(sink.String(), "\n") != 1 {
		t.Fatalf("trace log has %d lines, want 1 (the slow query only)", strings.Count(sink.String(), "\n"))
	}
}

// Every served request writes one structured log line, and a failed v2
// request's envelope carries the same request_id the log line does.
func TestServeSlogRequestLine(t *testing.T) {
	var logBuf bytes.Buffer
	srv := newObsServer(t, HandlerConfig{Log: slog.New(slog.NewJSONHandler(&logBuf, nil))})

	var ok BatchSelectResponse
	if code := postJSON(t, srv.URL+"/v2/select", batchBody(), &ok); code != http.StatusOK {
		t.Fatalf("select status %d", code)
	}
	resp, err := http.Post(srv.URL+"/v2/select", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope ErrorV2
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != CodeBadRequest || envelope.RequestID == "" {
		t.Fatalf("v2 error envelope = %+v, want bad_request with request_id", envelope)
	}

	// The handler writes its log line after the response body is sent,
	// so close the server (which waits for outstanding handlers) before
	// reading the buffer, and order the lines by request ID — its
	// zero-padded sequence is the arrival order.
	srv.Close()
	type reqLine struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		TraceID   string  `json:"trace_id"`
		Endpoint  string  `json:"endpoint"`
		Status    int     `json:"status"`
		DurMS     float64 `json:"dur_ms"`
	}
	var lines []reqLine
	sc := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for sc.Scan() {
		var l reqLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, sc.Text())
		}
		if l.Msg == "request" {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("logged %d request lines, want 2:\n%s", len(lines), logBuf.String())
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].RequestID < lines[j].RequestID })
	good, bad := lines[0], lines[1]
	if good.Endpoint != "POST /v2/select" || good.Status != http.StatusOK || good.RequestID == "" {
		t.Fatalf("good request line = %+v", good)
	}
	if bad.Status != http.StatusBadRequest || bad.RequestID != envelope.RequestID {
		t.Fatalf("bad request line = %+v, envelope request_id %q", bad, envelope.RequestID)
	}
	if good.RequestID == bad.RequestID {
		t.Fatal("request IDs are not unique per request")
	}
}
