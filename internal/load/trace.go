// Package load is the sustained-load harness behind cmd/famload and the
// serve layer's request-trace recorder: open-loop workload generation
// (Poisson/Gamma/uniform arrivals over weighted query templates),
// JSONL trace record/replay, a runner that drives either a fam.Engine
// in-process or the HTTP surface, and a machine-readable fitness
// report (throughput, latency percentiles, shed rate, per-class
// fairness, cache hit rates).
//
// Everything is seed-deterministic: a Spec generates the same trace at
// the same seed, and a sequential (unpaced) replay of a trace produces
// a byte-identical per-request outcome sequence across runs.
package load

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	fam "github.com/regretlab/fam"
)

// Request is one traced query: the semantic fields of a selection or
// evaluation plus the client-visible scheduling knobs. It is the JSONL
// wire shape of a trace line (minus the timestamp, which TraceEntry
// adds) and deliberately carries strings/milliseconds rather than
// fam's resolved types, so traces survive replay on another day — a
// relative deadline_ms re-resolves against the replay clock, exactly
// as the HTTP surface resolves it against request arrival.
type Request struct {
	Dataset        string  `json:"dataset"`
	K              int     `json:"k,omitempty"`
	Algorithm      string  `json:"algorithm,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`
	Sigma          float64 `json:"sigma,omitempty"`
	SampleSize     int     `json:"sample_size,omitempty"`
	DisableSkyline bool    `json:"disable_skyline,omitempty"`
	Coreset        bool    `json:"coreset,omitempty"`
	CoresetEps     float64 `json:"coreset_eps,omitempty"`
	Float32        bool    `json:"float32,omitempty"`
	// Set turns the request into an evaluation of these row indices.
	Set []int `json:"set,omitempty"`

	// Execution-policy knobs, mirroring the v2 exec block.
	Parallelism int    `json:"parallelism,omitempty"`
	Priority    string `json:"priority,omitempty"`
	DeadlineMS  int64  `json:"deadline_ms,omitempty"`
	MaxQueue    int    `json:"max_queue,omitempty"`
}

// Query maps the request to its semantic fam.Query. An unknown
// Algorithm surfaces from the engine as ErrBadOptions — the runner
// records it as a 400 outcome rather than failing the run.
func (r Request) Query() fam.Query {
	q := fam.Query{
		Dataset:        r.Dataset,
		K:              r.K,
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
	if r.Algorithm != "" {
		if a, err := fam.ParseAlgorithm(r.Algorithm); err == nil {
			q.Algorithm = a
		} else {
			q.Algorithm = fam.Algorithm(-1) // invalid on purpose: fails as ErrBadOptions
		}
	}
	return q
}

// maxDeadlineMS clamps |deadline_ms| at one year, matching the serve
// layer: a huge positive value stays a generous future deadline and can
// never overflow the nanosecond conversion; a huge negative one stays
// expired (sheds on admission).
const maxDeadlineMS = int64(365 * 24 * time.Hour / time.Millisecond)

// Exec resolves the request's execution policy at the given arrival
// time (the same relative-deadline resolution the HTTP surface
// applies). An unknown priority name is an error.
func (r Request) Exec(now time.Time) (fam.Exec, error) {
	exec := fam.Exec{
		Parallelism: r.Parallelism,
		MaxQueue:    r.MaxQueue,
	}
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
			ms = -maxDeadlineMS
		}
		exec.Deadline = now.Add(time.Duration(ms) * time.Millisecond)
	}
	return exec, nil
}

// TraceEntry is one line of a JSONL trace: a request and its offset
// from the start of the trace in milliseconds. Entries are kept in
// nondecreasing t_ms order by the generator; ReadTrace tolerates any
// order and the paced runner sorts by offset implicitly (each entry is
// scheduled at its own offset).
type TraceEntry struct {
	TMS float64 `json:"t_ms"`
	Request
}

// TraceWriter appends trace entries as JSONL, safe for concurrent
// recorders (the serve layer records from per-request goroutines).
type TraceWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewTraceWriter wraps w as a JSONL trace sink.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// Record appends one entry.
func (t *TraceWriter) Record(e TraceEntry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enc.Encode(e)
}

// WriteTrace writes all entries to w as JSONL.
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	tw := NewTraceWriter(w)
	for _, e := range entries {
		if err := tw.Record(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadTrace parses a JSONL trace. Blank lines are skipped; a malformed
// line fails with its line number.
func ReadTrace(r io.Reader) ([]TraceEntry, error) {
	var out []TraceEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e TraceEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
