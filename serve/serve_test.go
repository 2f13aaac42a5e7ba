package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	fam "github.com/regretlab/fam"
)

func newTestServer(t *testing.T) (*httptest.Server, *fam.Engine) {
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
	srv := httptest.NewServer(NewHandler(engine))
	t.Cleanup(srv.Close)
	return srv, engine
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func TestServeEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)

	var dsResp DatasetsResponse
	if code := getJSON(t, srv.URL+"/v1/datasets", &dsResp); code != http.StatusOK {
		t.Fatalf("datasets status %d", code)
	}
	if len(dsResp.Datasets) != 1 || dsResp.Datasets[0].Name != "hotels" || dsResp.Datasets[0].N != 120 {
		t.Fatalf("datasets = %+v", dsResp)
	}

	req := SelectRequest{Dataset: "hotels", K: 5, Seed: 7, SampleSize: 120}
	var cold SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", req, &cold); code != http.StatusOK {
		t.Fatalf("select status %d", code)
	}
	if len(cold.Indices) != 5 || len(cold.Labels) != 5 || cold.Cached {
		t.Fatalf("cold select = %+v", cold)
	}
	if cold.Metrics.ARR < 0 || cold.Metrics.ARR > 1 {
		t.Fatalf("ARR = %v", cold.Metrics.ARR)
	}

	// Same request again: bit-identical answer served from the result
	// cache.
	var warm SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", req, &warm); code != http.StatusOK {
		t.Fatalf("warm select status %d", code)
	}
	if !warm.Cached {
		t.Fatal("second identical select not served from cache")
	}
	for i := range cold.Indices {
		if warm.Indices[i] != cold.Indices[i] {
			t.Fatalf("warm indices %v != cold %v", warm.Indices, cold.Indices)
		}
	}

	// Evaluate the returned selection; ARR must round-trip exactly (same
	// seed and sample size → the same sampled instance).
	var ev EvaluateResponse
	code := postJSON(t, srv.URL+"/v1/evaluate", EvaluateRequest{
		Dataset: "hotels", Set: cold.Indices, Seed: 7, SampleSize: 120,
	}, &ev)
	if code != http.StatusOK {
		t.Fatalf("evaluate status %d", code)
	}
	if ev.Metrics.ARR != cold.Metrics.ARR {
		t.Fatalf("evaluate ARR %v != select ARR %v", ev.Metrics.ARR, cold.Metrics.ARR)
	}

	var stats StatsResponse
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Engine.Selects != 2 || stats.Engine.Evaluates != 1 {
		t.Fatalf("engine counters = %+v", stats.Engine)
	}
	if stats.Engine.ResultCache.Hits == 0 || stats.Engine.PrepCache.Misses == 0 {
		t.Fatalf("cache stats = %+v", stats.Engine)
	}
	if stats.HTTP.Requests == 0 || stats.HTTP.ClientError != 0 || stats.HTTP.ServerError != 0 {
		t.Fatalf("http stats = %+v", stats.HTTP)
	}
}

func TestServeErrorMapping(t *testing.T) {
	srv, _ := newTestServer(t)

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown dataset", "/v1/select", SelectRequest{Dataset: "nope", K: 3}, http.StatusNotFound},
		{"bad k", "/v1/select", SelectRequest{Dataset: "hotels", K: 0}, http.StatusBadRequest},
		{"bad algorithm", "/v1/select", SelectRequest{Dataset: "hotels", K: 3, Algorithm: "quantum"}, http.StatusBadRequest},
		{"bad epsilon", "/v1/select", SelectRequest{Dataset: "hotels", K: 3, Epsilon: 7}, http.StatusBadRequest},
		{"invalid set", "/v1/evaluate", EvaluateRequest{Dataset: "hotels", Set: []int{1, 1}, SampleSize: 50}, http.StatusBadRequest},
		{"empty set", "/v1/evaluate", EvaluateRequest{Dataset: "hotels", SampleSize: 50}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var errResp ErrorResponse
		if code := postJSON(t, srv.URL+tc.url, tc.body, &errResp); code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if errResp.Error == "" {
			t.Fatalf("%s: empty error body", tc.name)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/select", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	// Unknown route/method.
	resp, err = http.Get(srv.URL + "/v1/select")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/select: status %d", resp.StatusCode)
	}
}

// TestServeClosedEngine: queries against a closed engine surface as 503.
func TestServeClosedEngine(t *testing.T) {
	srv, engine := newTestServer(t)
	engine.Close()
	var errResp ErrorResponse
	if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{Dataset: "hotels", K: 3}, &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
}

// TestServeMatchesLibrary: the HTTP layer must not perturb results —
// the response equals a direct library call bit for bit.
func TestServeMatchesLibrary(t *testing.T) {
	srv, _ := newTestServer(t)
	ds, err := fam.Hotels(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := fam.UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fam.Select(context.Background(), fam.Query{
		Data: ds, Dist: dist, K: 4, Seed: 11, SampleSize: 100, Algorithm: fam.GreedyAdd,
	}, fam.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	var got SelectResponse
	code := postJSON(t, srv.URL+"/v1/select", SelectRequest{
		Dataset: "hotels", K: 4, Seed: 11, SampleSize: 100, Algorithm: "greedy-add",
	}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("got %v, want %v", got.Indices, want.Indices)
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("got %v, want %v", got.Indices, want.Indices)
		}
	}
	if got.Metrics.ARR != want.Metrics.ARR {
		t.Fatalf("ARR %v, want %v", got.Metrics.ARR, want.Metrics.ARR)
	}
}

// TestServeBatchSelect: POST /v2/select answers a mixed panel with
// per-member slots — a k-sweep, an evaluation member, and a failing
// member that must not poison its siblings.
func TestServeBatchSelect(t *testing.T) {
	srv, engine := newTestServer(t)
	req := BatchSelectRequest{
		Queries: []QueryRequest{
			{Dataset: "hotels", K: 3, Seed: 7, SampleSize: 120},
			{Dataset: "hotels", K: 5, Seed: 7, SampleSize: 120},
			{Dataset: "hotels", K: 7, Seed: 7, SampleSize: 120},
			{Dataset: "hotels", Seed: 7, SampleSize: 120, Set: []int{0, 1, 2}},
			{Dataset: "nope", K: 3},
		},
		Exec: ExecRequest{Parallelism: 4},
	}
	var resp BatchSelectResponse
	if code := postJSON(t, srv.URL+"/v2/select", req, &resp); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(resp.Results) != len(req.Queries) {
		t.Fatalf("%d slots, want %d", len(resp.Results), len(req.Queries))
	}
	for i, k := range []int{3, 5, 7} {
		slot := resp.Results[i]
		if slot.Error != "" || slot.SelectResponse == nil {
			t.Fatalf("slot %d: %+v", i, slot)
		}
		if len(slot.Indices) != k {
			t.Fatalf("slot %d: %d indices, want %d", i, len(slot.Indices), k)
		}
		if slot.Telemetry == nil {
			t.Fatalf("slot %d: v2 member missing telemetry", i)
		}
	}
	evalSlot := resp.Results[3]
	if evalSlot.Error != "" || len(evalSlot.Indices) != 3 || evalSlot.Metrics.ARR < 0 {
		t.Fatalf("evaluation member: %+v", evalSlot)
	}
	if evalSlot.CoresetSize != nil {
		t.Fatalf("evaluation member reports coreset_size %d; the prepass never runs on evaluations", *evalSlot.CoresetSize)
	}
	bad := resp.Results[4]
	if bad.Error == "" || bad.Status != http.StatusNotFound || bad.SelectResponse != nil {
		t.Fatalf("failing member: %+v", bad)
	}

	// The k-sweep shared one preprocessing pass: one skyline index, one
	// sampled function set, one skyline-restricted instance. The fourth
	// fill is the evaluation member's full-dataset instance (evaluation
	// never restricts candidates).
	s := engine.Stats()
	if s.PrepCache.Misses != 4 {
		t.Fatalf("prep fills = %d, want exactly 4 (sky, funcs, inst|sky, inst|full)", s.PrepCache.Misses)
	}
	if s.Batches != 1 || s.BatchQueries != uint64(len(req.Queries)) {
		t.Fatalf("batch counters = %+v", s)
	}

	// Whole-batch failures: empty and oversized batches are 400s.
	var errResp ErrorResponse
	if code := postJSON(t, srv.URL+"/v2/select", BatchSelectRequest{}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", code)
	}
}

// TestServeV1ShimMatchesV2 is the golden equivalence check: for every
// algorithm, the v1 shim and a v2 batch member must return identical
// answers (they share one execution path and one result cache, so the
// second surface to ask even sees Cached=true).
func TestServeV1ShimMatchesV2(t *testing.T) {
	algos := []string{
		"greedy-shrink", "greedy-shrink-lazy", "greedy-shrink-naive",
		"brute-force", "mrr-greedy", "sky-dom", "k-hit", "greedy-add",
	}
	srv, _ := newTestServer(t)
	for _, algo := range algos {
		k := 3
		var v1 SelectResponse
		if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{
			Dataset: "hotels", K: k, Seed: 9, SampleSize: 100, Algorithm: algo,
		}, &v1); code != http.StatusOK {
			t.Fatalf("%s: v1 status %d", algo, code)
		}
		a, err := fam.ParseAlgorithm(algo)
		if err != nil {
			t.Fatal(err)
		}
		var v2 BatchSelectResponse
		if code := postJSON(t, srv.URL+"/v2/select", BatchSelectRequest{
			Queries: []QueryRequest{{Dataset: "hotels", K: k, Seed: 9, SampleSize: 100, Algorithm: a}},
		}, &v2); code != http.StatusOK {
			t.Fatalf("%s: v2 status %d", algo, code)
		}
		slot := v2.Results[0]
		if slot.Error != "" {
			t.Fatalf("%s: v2 member error %q", algo, slot.Error)
		}
		if !slot.Cached {
			t.Fatalf("%s: v2 did not hit the cache entry the v1 shim filled — the surfaces do not share a result cache", algo)
		}
		if slot.Algorithm != v1.Algorithm || slot.Dataset != v1.Dataset || slot.K != v1.K {
			t.Fatalf("%s: headers differ: v1 %+v v2 %+v", algo, v1, slot)
		}
		if len(slot.Indices) != len(v1.Indices) {
			t.Fatalf("%s: v2 %v vs v1 %v", algo, slot.Indices, v1.Indices)
		}
		for i := range v1.Indices {
			if slot.Indices[i] != v1.Indices[i] || slot.Labels[i] != v1.Labels[i] {
				t.Fatalf("%s: v2 %v vs v1 %v", algo, slot.Indices, v1.Indices)
			}
		}
		if slot.Metrics.ARR != v1.Metrics.ARR || slot.ExactARR != v1.ExactARR || slot.SkylineSize != v1.SkylineSize {
			t.Fatalf("%s: metrics differ: v1 %+v v2 %+v", algo, v1.Metrics, slot.Metrics)
		}
	}
}

// TestServeRetiredExecKnobIgnored: lazy_batch is a retired exec knob. Both
// wires still accept it — v1 keeps the field in its frozen struct, v2
// drops it as an unknown key — and neither lets it change the answer or
// fail the request, whatever its size. Every request runs on a fresh
// server so the solver, not the result cache, answers it.
func TestServeRetiredExecKnobIgnored(t *testing.T) {
	const (
		v1Body = `{"dataset":"hotels","k":4,"seed":9,"sample_size":100,"algorithm":"greedy-shrink-lazy"%s}`
		v2Body = `{"queries":[{"dataset":"hotels","k":4,"seed":9,"sample_size":100,"algorithm":"greedy-shrink-lazy"}],"exec":{%s}}`
	)
	post := func(url, body string) (int, SelectResponse) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SelectResponse
		if strings.HasSuffix(url, "/v2/select") {
			var v2 BatchSelectResponse
			if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
				t.Fatalf("decoding %s: %v", body, err)
			}
			if len(v2.Results) != 1 {
				t.Fatalf("%s: %d results", body, len(v2.Results))
			}
			if slot := v2.Results[0]; slot.Error != "" {
				return slot.Status, out
			}
			return resp.StatusCode, *v2.Results[0].SelectResponse
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		return resp.StatusCode, out
	}
	for _, wire := range []struct{ path, body, field string }{
		{"/v1/select", v1Body, `,"lazy_batch":%s`},
		{"/v2/select", v2Body, `"lazy_batch":%s`},
	} {
		ref, _ := newTestServer(t)
		code, want := post(ref.URL+wire.path, fmt.Sprintf(wire.body, ""))
		if code != http.StatusOK {
			t.Fatalf("%s without lazy_batch: status %d", wire.path, code)
		}
		for _, lb := range []string{"4", "4611686018427387904"} {
			srv, _ := newTestServer(t)
			body := fmt.Sprintf(wire.body, fmt.Sprintf(wire.field, lb))
			code, got := post(srv.URL+wire.path, body)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d, want 200", body, code)
			}
			if !reflect.DeepEqual(got.Indices, want.Indices) || !reflect.DeepEqual(got.Metrics, want.Metrics) {
				t.Fatalf("%s: answer changed: %v %+v, want %v %+v", body, got.Indices, got.Metrics, want.Indices, want.Metrics)
			}
		}
	}
}

// TestServeUpload: POST /v1/datasets ingests CSV into the registry, and
// the uploaded dataset is immediately queryable; collisions are 409 and
// the size cap maps to 413.
func TestServeUpload(t *testing.T) {
	engine := fam.NewEngine(fam.EngineConfig{})
	t.Cleanup(engine.Close)
	h := NewHandlerConfig(engine, HandlerConfig{MaxUploadBytes: 512})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	csv := "label,price,rating\na,0.1,0.9\nb,0.9,0.1\nc,0.5,0.6\nd,0.3,0.2\n"
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := post(srv.URL+"/v1/datasets?name=mine", csv)
	if code != http.StatusCreated {
		t.Fatalf("upload status %d: %s", code, body)
	}
	var up UploadResponse
	if err := json.Unmarshal([]byte(body), &up); err != nil {
		t.Fatal(err)
	}
	if up.Dataset.Name != "mine" || up.Dataset.N != 4 || up.Dataset.Dim != 2 {
		t.Fatalf("upload response %+v", up)
	}

	// The uploaded dataset serves queries at once.
	var sel SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{Dataset: "mine", K: 2, Seed: 1, SampleSize: 50}, &sel); code != http.StatusOK {
		t.Fatalf("select on upload: %d", code)
	}
	if len(sel.Indices) != 2 {
		t.Fatalf("select on upload: %+v", sel)
	}

	// Name collision → 409.
	if code, _ := post(srv.URL+"/v1/datasets?name=mine", csv); code != http.StatusConflict {
		t.Fatalf("duplicate upload status %d, want 409", code)
	}
	// Missing name → 400.
	if code, _ := post(srv.URL+"/v1/datasets", csv); code != http.StatusBadRequest {
		t.Fatalf("nameless upload status %d, want 400", code)
	}
	// Bad distribution spec → 400.
	if code, _ := post(srv.URL+"/v1/datasets?name=x&dist=quantum", csv); code != http.StatusBadRequest {
		t.Fatalf("bad dist status %d, want 400", code)
	}
	// Over the byte cap → 413.
	big := "label,a,b\n" + strings.Repeat("p,0.5,0.5\n", 200)
	if code, _ := post(srv.URL+"/v1/datasets?name=big", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status %d, want 413", code)
	}
	// CES distribution spec works.
	if code, _ := post(srv.URL+"/v1/datasets?name=ces&dist=ces:0.5", csv); code != http.StatusCreated {
		t.Fatalf("ces upload status %d, want 201", code)
	}

	var stats StatsResponse
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.HTTP.Uploads != 2 || stats.Engine.Datasets != 2 {
		t.Fatalf("upload counters: %+v %+v", stats.HTTP, stats.Engine)
	}
}

// TestServeUploadDistSpec: the whole ?dist= value must parse. A ces
// rho with trailing input, or one outside (0, 1] such as NaN, is a 400
// and registers nothing; an accepted spec names its distribution.
func TestServeUploadDistSpec(t *testing.T) {
	engine := fam.NewEngine(fam.EngineConfig{})
	t.Cleanup(engine.Close)
	srv := httptest.NewServer(NewHandler(engine))
	t.Cleanup(srv.Close)
	csv := "a,b\n0.1,0.9\n0.9,0.1\n0.5,0.6\n"
	for i, tc := range []struct {
		dist string
		code int
		name string // Distribution name echoed on 201
	}{
		{"", http.StatusCreated, "uniform-simplex-linear(d=2)"},
		{"linear", http.StatusCreated, "uniform-simplex-linear(d=2)"},
		{"box", http.StatusCreated, "uniform-box-linear(d=2)"},
		{"ces:0.5", http.StatusCreated, "ces(d=2,rho=0.5)"},
		{"ces:1", http.StatusCreated, "ces(d=2,rho=1)"},
		{"ces:0.5abc", http.StatusBadRequest, ""},
		{"ces:0.5 ", http.StatusBadRequest, ""},
		{"ces:NaN", http.StatusBadRequest, ""},
		{"ces:nan", http.StatusBadRequest, ""},
		{"ces:Inf", http.StatusBadRequest, ""},
		{"ces:0", http.StatusBadRequest, ""},
		{"ces:1.5", http.StatusBadRequest, ""},
		{"ces:", http.StatusBadRequest, ""},
		{"quantum", http.StatusBadRequest, ""},
	} {
		u := fmt.Sprintf("%s/v1/datasets?name=d%d&dist=%s", srv.URL, i, url.QueryEscape(tc.dist))
		resp, err := http.Post(u, "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("dist=%q: status %d, want %d: %s", tc.dist, resp.StatusCode, tc.code, body)
		}
		if tc.code != http.StatusCreated {
			continue
		}
		var up UploadResponse
		if err := json.Unmarshal(body, &up); err != nil {
			t.Fatal(err)
		}
		if up.Dataset.Distribution != tc.name {
			t.Fatalf("dist=%q: registered %q, want %q", tc.dist, up.Dataset.Distribution, tc.name)
		}
	}
	if got := engine.Stats().Datasets; got != 5 {
		t.Fatalf("%d datasets registered, want the 5 accepted specs", got)
	}
}

// TestServeSampleSizeCap: a request whose resolved sample size exceeds
// the library's cap is a client error on both API versions — whether an
// Epsilon of 1e-7 asks for ~7e14 functions, an Epsilon of 1e-10
// overflows Theorem 4's bound, or sample_size names it directly — and
// the server keeps answering afterwards.
func TestServeSampleSizeCap(t *testing.T) {
	srv, _ := newTestServer(t)
	bad := []QueryRequest{
		{Dataset: "hotels", K: 3, Epsilon: 1e-7},
		{Dataset: "hotels", K: 3, Epsilon: 1e-10},
		{Dataset: "hotels", K: 3, SampleSize: 1<<22 + 1},
	}
	for _, q := range bad {
		var errResp ErrorResponse
		v1 := SelectRequest{Dataset: q.Dataset, K: q.K, Epsilon: q.Epsilon, SampleSize: q.SampleSize}
		if code := postJSON(t, srv.URL+"/v1/select", v1, &errResp); code != http.StatusBadRequest {
			t.Fatalf("v1 %+v: status %d, want 400 (%s)", q, code, errResp.Error)
		}
		ev := EvaluateRequest{Dataset: q.Dataset, Set: []int{0, 1}, Epsilon: q.Epsilon, SampleSize: q.SampleSize}
		if code := postJSON(t, srv.URL+"/v1/evaluate", ev, &errResp); code != http.StatusBadRequest {
			t.Fatalf("v1 evaluate %+v: status %d, want 400 (%s)", q, code, errResp.Error)
		}
	}
	var batch BatchSelectResponse
	if code := postJSON(t, srv.URL+"/v2/select", BatchSelectRequest{Queries: bad}, &batch); code != http.StatusOK {
		t.Fatalf("v2 batch: status %d", code)
	}
	for i, r := range batch.Results {
		if r.Status != http.StatusBadRequest || r.Code != CodeBadRequest {
			t.Fatalf("v2 member %d = %+v, want 400 bad_request", i, r)
		}
	}
	var ok SelectResponse
	if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{Dataset: "hotels", K: 3, SampleSize: 50}, &ok); code != http.StatusOK {
		t.Fatalf("select after rejections: status %d", code)
	}
}
