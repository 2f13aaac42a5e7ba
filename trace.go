package fam

import (
	"context"
	"time"

	"github.com/regretlab/fam/internal/obs"
)

// TraceSpan is one node of a query's finished span tree: a named, timed
// operation with its attributes, timed events, and children. It is the
// public mirror of the internal tracer's node type, attached to
// Telemetry.Trace when a query runs traced.
//
// Span structure — names, nesting, counts, attributes — is deterministic
// for a fixed (Query, Exec): golden tests pin it via Shape. Only the
// timings (Start, Dur, event durations) and the IDs vary between runs.
type TraceSpan struct {
	// TraceID identifies the whole request's trace (32 lowercase hex,
	// W3C-compatible); SpanID this span (16 hex); Parent the enclosing
	// span ("" for a root without a remote caller).
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent_span_id,omitempty"`
	// Name is the operation ("engine.select", "prepare", "solve",
	// "shrink", "round", ...; see the README span catalog).
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	// Attrs annotate the span with values that are pure functions of the
	// query (key, strategy, n, k, eval counts, hit/shared/dedup flags).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Events are timed occurrences inside the span — one "pool.grant"
	// per helper ticket granted, with its enqueue-to-grant wait. Event
	// counts depend on scheduling timing and are excluded from Shape.
	Events   []TraceEvent `json:"events,omitempty"`
	Children []*TraceSpan `json:"children,omitempty"`
}

// TraceEvent is one timed event inside a TraceSpan.
type TraceEvent struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// traceOf extracts the finished subtree rooted at span as the public
// mirror (nil when tracing is off). Callers End the span first; the
// enclosing serve spans may still be open.
func traceOf(span *obs.Span) *TraceSpan {
	if span == nil {
		return nil
	}
	return traceSpanFromNode(span.Collector().Node(span.SpanID))
}

// traceSpanFromNode converts the internal tree into the public mirror.
func traceSpanFromNode(n *obs.Node) *TraceSpan {
	if n == nil {
		return nil
	}
	sp := n.Span
	out := &TraceSpan{
		TraceID: sp.TraceID,
		SpanID:  sp.SpanID,
		Parent:  sp.Parent,
		Name:    sp.Name,
		Start:   sp.Start,
		Dur:     sp.Dur,
	}
	if len(sp.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, ev := range sp.Events() {
		out.Events = append(out.Events, TraceEvent{Name: ev.Name, Dur: ev.Dur})
	}
	for _, ch := range n.Children {
		out.Children = append(out.Children, traceSpanFromNode(ch))
	}
	return out
}

// Shape renders the deterministic structure of the span subtree: one
// indented line per span with its name and attrs, children ordered by
// their own rendered shape. Durations, IDs, and events are excluded, so
// for a fixed (Query, Exec) the string is identical run after run and
// at any worker count — the form golden tests compare.
func (s *TraceSpan) Shape() string {
	if s == nil {
		return ""
	}
	return s.node().Shape()
}

// node rebuilds an obs.Node view over the mirror tree so Shape shares
// the internal renderer (one definition of "deterministic structure").
func (s *TraceSpan) node() *obs.Node {
	sp := &obs.Span{
		TraceID: s.TraceID,
		SpanID:  s.SpanID,
		Parent:  s.Parent,
		Name:    s.Name,
		Start:   s.Start,
		Dur:     s.Dur,
	}
	for _, k := range sortedAttrKeys(s.Attrs) {
		sp.SetAttr(k, s.Attrs[k])
	}
	n := &obs.Node{Span: sp}
	for _, ch := range s.Children {
		n.Children = append(n.Children, ch.node())
	}
	return n
}

func sortedAttrKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; attr maps are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// TraceContext arms a context for tracing: a query run under the
// returned context collects a span tree and attaches it to
// Telemetry.Trace. traceID, when a valid 32-lowercase-hex W3C trace ID,
// is adopted (continuing an upstream trace); otherwise a fresh random
// ID is drawn. The serve layer arms requests itself from the
// X-Fam-Trace / traceparent headers; library callers use TraceContext
// to trace direct Engine or one-shot calls.
func TraceContext(ctx context.Context, traceID string) context.Context {
	return obs.NewCollectorContext(ctx, obs.NewCollector(traceID))
}

// TraceIDFromContext returns the trace ID the context is armed with
// ("" when tracing is off).
func TraceIDFromContext(ctx context.Context) string {
	return obs.CollectorFromContext(ctx).TraceID()
}

// planGroupKeyCtx marks a batch member's context with its plan-group
// key, so the representative's prep-fill spans can carry the group
// attribute (satellite: batch-planner tracing).
type planGroupKeyCtx struct{}

func withPlanGroupKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, planGroupKeyCtx{}, key)
}

func planGroupKeyFrom(ctx context.Context) string {
	k, _ := ctx.Value(planGroupKeyCtx{}).(string)
	return k
}
