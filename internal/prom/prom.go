// Package prom is the module's one Prometheus text-exposition writer
// (format version 0.0.4), shared by famserve's and famrouter's GET
// /metrics, with zero external dependencies: a Writer that emits each
// family's # HELP/# TYPE header once, sorted label sets, a fixed-bucket
// Histogram, and the per-route request accounting (Requests plus the
// StatusRecorder that captures each response's code).
package prom

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Writer accumulates exposition lines; the # HELP/# TYPE header is
// emitted once per metric family.
type Writer struct {
	sb    strings.Builder
	typed map[string]bool
}

// NewWriter returns an empty exposition.
func NewWriter() *Writer {
	return &Writer{typed: map[string]bool{}}
}

// Family declares a metric family; repeated declarations are no-ops.
func (w *Writer) Family(name, kind, help string) {
	if w.typed[name] {
		return
	}
	w.typed[name] = true
	w.sb.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + kind + "\n")
}

// Sample writes one sample line under a label set rendered by Labels.
func (w *Writer) Sample(name, labels string, value float64) {
	w.sb.WriteString(name + labels + " " + formatValue(value) + "\n")
}

// Serve writes the exposition as a 200 with the 0.0.4 content type.
func (w *Writer) Serve(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write([]byte(w.sb.String()))
}

// labelEscaper applies the three escapes format 0.0.4 defines for
// label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labels renders key/value pairs as a braced label set in
// deterministic (sorted) order; no pairs render as "".
func Labels(kv ...string) string {
	if len(kv) < 2 {
		return ""
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+`="`+labelEscaper.Replace(kv[i+1])+`"`)
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}"
}

// formatValue renders a sample value: integral values without an
// exponent (counter deltas stay grep-able in CI smoke checks), the
// rest in Go's shortest float form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Histogram is a fixed-bucket accumulator; callers serialize access.
type Histogram struct {
	bounds  []float64
	buckets []uint64 // len(bounds)+1; last = +Inf
	sum     float64
	count   uint64
}

// NewHistogram builds a histogram over ascending upper bounds; +Inf is
// implicit as the final bucket.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
}

// Observe accounts one value.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.count++
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
}

// Write renders the cumulative _bucket series, _sum and _count under
// the label pairs kv (le is added to each bucket).
func (h *Histogram) Write(w *Writer, name string, kv ...string) {
	le := append(append([]string(nil), kv...), "le", "")
	cum := uint64(0)
	for i, n := range h.buckets {
		cum += n
		le[len(le)-1] = "+Inf"
		if i < len(h.bounds) {
			le[len(le)-1] = formatValue(h.bounds[i])
		}
		w.Sample(name+"_bucket", Labels(le...), float64(cum))
	}
	w.Sample(name+"_sum", Labels(kv...), h.sum)
	w.Sample(name+"_count", Labels(kv...), float64(h.count))
}

// requestBuckets are the upper bounds (seconds) of the request latency
// histogram.
var requestBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 10}

// route is one route pattern's request counts by status code and its
// latency histogram.
type route struct {
	codes map[int]uint64
	dur   *Histogram
}

// Requests is the per-route request accounting behind an HTTP server's
// /metrics. The zero value is ready to use. A plain mutex over small
// maps: the critical section is a few map operations, far off any hot
// path.
type Requests struct {
	mu     sync.Mutex
	routes map[string]*route
}

// Record accounts one served request under its route pattern.
func (r *Requests) Record(pattern string, code int, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.routes == nil {
		r.routes = map[string]*route{}
	}
	rt := r.routes[pattern]
	if rt == nil {
		rt = &route{codes: map[int]uint64{}, dur: NewHistogram(requestBuckets)}
		r.routes[pattern] = rt
	}
	rt.codes[code]++
	rt.dur.Observe(seconds)
}

// Write renders <prefix>requests_total (by endpoint and code) and the
// <prefix>request_duration_seconds histogram (by endpoint), routes in
// sorted order.
func (r *Requests) Write(w *Writer, prefix string) {
	total, duration := prefix+"requests_total", prefix+"request_duration_seconds"
	w.Family(total, "counter", "Requests served, by route pattern and status code.")
	w.Family(duration, "histogram", "Request latency, by route pattern.")
	r.mu.Lock()
	defer r.mu.Unlock()
	patterns := make([]string, 0, len(r.routes))
	for p := range r.routes {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	for _, p := range patterns {
		rt := r.routes[p]
		codes := make([]int, 0, len(rt.codes))
		for code := range rt.codes {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			w.Sample(total, Labels("endpoint", p, "code", strconv.Itoa(code)), float64(rt.codes[code]))
		}
		rt.dur.Write(w, duration, "endpoint", p)
	}
}

// StatusRecorder captures the response status for request accounting.
// Callers start Status at 200, the code a handler that never calls
// WriteHeader answers with.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

// WriteHeader records the status and forwards it.
func (r *StatusRecorder) WriteHeader(status int) {
	r.Status = status
	r.ResponseWriter.WriteHeader(status)
}
