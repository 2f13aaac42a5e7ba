package fam

import (
	"context"
	"errors"
	"fmt"

	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/coreset"
	"github.com/regretlab/fam/internal/obs"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/internal/utility"
)

// prepared is the per-(dataset, distribution, seed) preprocessing state a
// query runs against: the candidate set (skyline-restricted when the
// distribution allows it), the sampled utility functions, and the built
// core.Instance with its materialized utility matrix.
type prepared struct {
	// key is the built instance's prep-cache key (see prepKey).
	key        string
	candidates []int
	funcs      []UtilityFunc
	weights    []float64
	in         *core.Instance
	// skylineSize is the candidate count before the coreset prepass
	// (what Result.SkylineSize reports); coresetSize is the count after
	// it, or −1 when the prepass was off.
	skylineSize int
	coresetSize int
	// hold counts the holders of an Engine-built instance; nil for a
	// one-shot build, which its call holds alone.
	hold *hold
}

// done ends a request's reads of the instance, after its last one: a
// one-shot build is released at once, and an Engine-built instance
// loses the request's hold.
func (p *prepared) done() {
	if p.hold == nil {
		p.in.Release()
		return
	}
	p.hold.drop()
}

// artifactSource supplies the artifacts prepare asks for: a callMemo for
// one-shot calls, the Engine's shared prep cache for Engine queries.
type artifactSource interface {
	// artifact returns the output of s, building it if not yet held.
	artifact(ctx context.Context, s stage, exec Exec) (any, error)
	// bind returns the built instance the query runs on under exec.
	bind(in *core.Instance, exec Exec) *core.Instance
}

// stage describes one preprocessing artifact to an artifactSource.
type stage struct {
	key string // see prepKey; the kind prefix names the Engine fill span
	// span names the span a one-shot build runs under; empty when build
	// opens its own (buildFuncs, assemble).
	span string
	// neutral marks a dataset-wide artifact (skyline, coreset), which an
	// Engine fill builds attr-neutral, not under the requester's attrs.
	neutral bool
	dep     *stage // resolved first and handed to build
	build   func(ctx context.Context, exec Exec, dep any) (any, error)
	// attrs records the stage's counts on the one-shot span, and on the
	// Engine fill span too when fillAttrs is set (fill.coreset carries
	// in/out; fill.sky only its key).
	attrs     func(span *obs.Span, v any)
	fillAttrs bool
}

// callMemo is the one-shot artifact source: a per-call map, so the
// sampled functions that both the coreset and the instance need are
// drawn once. Builds run under the caller's context and Exec.
type callMemo map[string]any

func (m callMemo) artifact(ctx context.Context, s stage, exec Exec) (any, error) {
	if v, ok := m[s.key]; ok {
		return v, nil
	}
	var dep any
	if s.dep != nil {
		var err error
		if dep, err = m.artifact(ctx, *s.dep, exec); err != nil {
			return nil, err
		}
	}
	var span *obs.Span
	if s.span != "" {
		ctx, span = obs.Start(ctx, s.span)
		defer span.End()
	}
	v, err := s.build(ctx, exec, dep)
	if err != nil {
		return nil, err
	}
	if s.attrs != nil {
		s.attrs(span, v)
	}
	m[s.key] = v
	return v, nil
}

func (callMemo) bind(in *core.Instance, _ Exec) *core.Instance { return in }

// prepare runs the preprocessing pipeline of Section III-D2 — skyline,
// sampled functions, opt-in coreset, built instance — taking every
// artifact from src. exec is the query's execution policy. Results are
// bit-identical for either source and any Exec.
func prepare(ctx context.Context, src artifactSource, ds *Dataset, dist Distribution, q Query, norm normalized, exec Exec) (*prepared, error) {
	ctx, span := obs.Start(ctx, "prepare")
	defer span.End()
	// Step 1: skyline restriction for monotone Θ (every user's favorite
	// is a skyline point, so arr over the skyline equals arr over the
	// database). Index-based (Table) distributions are excluded: their
	// scores are tied to database positions. A skyline of K or fewer
	// points keeps the full dataset. class names the candidate set in
	// the coreset and instance keys.
	var candidates []int // nil: every dataset point
	class, skySize := "full", ds.N()
	if norm.useSkyline {
		v, err := src.artifact(ctx, stage{
			key:     prepKey("sky", q.Dataset, "", q, norm),
			span:    "skyline",
			neutral: true,
			build: func(ctx context.Context, x Exec, _ any) (any, error) {
				return skyline.ComputeOpts(ctx, ds.Points, skyline.ComputeOptions{Workers: x.Parallelism, Pool: x.pool})
			},
			attrs: func(span *obs.Span, v any) { span.SetAttrInt("size", len(v.([]int))) },
		}, exec)
		if err != nil {
			return nil, err
		}
		if sky := v.([]int); len(sky) > q.K {
			candidates, class, skySize = sky, "sky", len(sky)
		}
	}

	// Step 2: sample Θ, or take the discrete support verbatim with its
	// probabilities (Appendix A). The coreset and the instance resolve
	// the functions as their dep, only when they are built.
	var funcs *stage
	if norm.discrete == nil {
		funcs = &stage{
			key: prepKey("funcs", q.Dataset, "", q, norm),
			build: func(ctx context.Context, _ Exec, _ any) (any, error) {
				_, sp := obs.Start(ctx, "buildFuncs")
				defer sp.End()
				fs, err := sampling.Sample(dist, norm.sampleSize, rng.New(q.Seed))
				sp.SetAttrInt("funcs", len(fs))
				return fs, err
			},
		}
	}
	funcsOf := func(dep any) ([]UtilityFunc, []float64) {
		if norm.discrete != nil {
			return norm.discrete.Funcs, norm.discrete.Probs
		}
		return dep.([]UtilityFunc), nil
	}

	// Step 3 (opt-in): the ε-kernel coreset prepass drops candidates that
	// are never within norm.coresetEps of best for any sampled user. It
	// runs after sampling because the kernel is defined against the
	// drawn functions. Like the skyline, pruning to K or fewer keeps the
	// unpruned candidates, and the class gains the coreset component
	// only when the pruning applied.
	csSize := -1
	if norm.useCoreset {
		in := candidates
		v, err := src.artifact(ctx, stage{
			key:     prepKey("coreset", q.Dataset, class, q, norm),
			span:    "coreset",
			neutral: true,
			dep:     funcs,
			build: func(ctx context.Context, x Exec, dep any) (any, error) {
				fs, _ := funcsOf(dep)
				return coreset.Filter(ctx, ds.Points, in, fs,
					coreset.Options{Eps: norm.coresetEps, Parallelism: x.Parallelism, Pool: x.pool})
			},
			attrs: func(span *obs.Span, v any) {
				span.SetAttrInt("in", skySize)
				span.SetAttrInt("out", len(v.([]int)))
			},
			fillAttrs: true,
		}, exec)
		if err != nil {
			return nil, err
		}
		csSize = skySize
		if cs := v.([]int); len(cs) > q.K {
			candidates, csSize = cs, len(cs)
			class = fmt.Sprintf("%s+cs%g", class, norm.coresetEps)
		}
	}

	// Step 4: the instance over the candidates.
	key := prepKey("inst", q.Dataset, class, q, norm)
	v, err := src.artifact(ctx, stage{
		key: key,
		dep: funcs,
		build: func(ctx context.Context, x Exec, dep any) (any, error) {
			fs, ws := funcsOf(dep)
			return assemble(ctx, ds, candidates, fs, ws, q, x)
		},
	}, exec)
	if err != nil {
		return nil, err
	}
	prep := *v.(*prepared)
	prep.key = key
	prep.in = src.bind(prep.in, exec)
	prep.skylineSize, prep.coresetSize = skySize, csSize
	return &prep, nil
}

// prepKey builds the key of one preprocessing artifact, or with kind ""
// the Engine's InstanceKey, which shares the instance tuple:
//
//	sky|<dataset>
//	funcs|<dataset>|seed=…|N=…
//	coreset|<dataset>|<class>|seed=…|N=…|exact=…|eps=…
//	inst|<dataset>|<class>|seed=…|N=…|exact=…[|f32]
//	<dataset>|sky=<bool>|seed=…|N=…|exact=…[|cs=<eps>][|f32]
//
// Opt-in components append conditionally so established keys stay
// byte-stable.
func prepKey(kind, dataset, class string, q Query, norm normalized) string {
	switch kind {
	case "sky":
		return "sky|" + dataset
	case "funcs":
		return fmt.Sprintf("funcs|%s|seed=%d|N=%d", dataset, q.Seed, norm.sampleSize)
	}
	key := fmt.Sprintf("%s|%s|seed=%d|N=%d|exact=%t", dataset, class, q.Seed, norm.sampleSize, norm.discrete != nil)
	if kind != "" {
		key = kind + "|" + key
	}
	if kind == "coreset" {
		return key + fmt.Sprintf("|eps=%g", norm.coresetEps)
	}
	if kind == "" && norm.useCoreset {
		key += fmt.Sprintf("|cs=%g", norm.coresetEps)
	}
	if q.Float32 {
		key += "|f32"
	}
	return key
}

// assemble restricts the point set to the candidates (nil: every point)
// and builds the core.Instance (utility materialization + best-point
// indexing).
func assemble(ctx context.Context, ds *Dataset, candidates []int, funcs []UtilityFunc, weights []float64, q Query, exec Exec) (*prepared, error) {
	_, span := obs.Start(ctx, "assemble")
	defer span.End()
	if candidates == nil {
		candidates = identity(ds.N())
	}
	span.SetAttrInt("candidates", len(candidates))
	points := ds.Points
	if len(candidates) != ds.N() {
		// Index-based utility functions would be misaligned on a
		// restricted candidate set; monotone vector distributions never
		// sample them, but guard against a mismatched registration.
		for _, f := range funcs {
			if _, ok := f.(utility.Table); ok {
				return nil, errors.New("fam: index-based utility functions cannot be combined with skyline or coreset preprocessing")
			}
		}
		points = make([][]float64, len(candidates))
		for i, c := range candidates {
			points[i] = ds.Points[c]
		}
	}
	in, err := core.NewInstance(points, funcs, core.Options{
		Weights:     weights,
		Float32:     q.Float32,
		Parallelism: exec.Parallelism,
		Pool:        exec.pool,
		Slot:        exec.slot,
	})
	var ue *core.UtilityError
	if errors.As(err, &ue) {
		// The instance numbers its points by candidate position; report
		// the dataset row, as the coreset prepass does.
		e := *ue
		e.Point = candidates[e.Point]
		return nil, &e
	}
	if err != nil {
		return nil, err
	}
	return &prepared{candidates: candidates, funcs: funcs, weights: weights, in: in}, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
