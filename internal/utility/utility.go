// Package utility defines the utility-function model of the paper
// (Definition 1) and the probability distributions Θ over utility functions
// (Section II-A). A utility function assigns a non-negative score to each
// point; a distribution samples utility functions for the Monte-Carlo
// estimator of the average regret ratio (Theorem 4).
//
// Families provided:
//
//   - Linear: f(p) = w·p, the workhorse of the k-regret literature.
//   - CES: f(p) = (Σ w_i p_i^ρ)^(1/ρ), the non-linear concave family used
//     by the "k-regret queries with nonlinear utilities" line of work.
//   - Table: explicit per-point utilities (the paper's Table I example and
//     the countable-F case of Appendix A).
//
// Distributions provided:
//
//   - UniformSimplexLinear: weights uniform on the probability simplex
//     (Dirichlet(1)), the standard "uniform linear" model.
//   - UniformBoxLinear: weights uniform on [0,1]^d, the measure the 2-d
//     dynamic program integrates in closed form (Section IV-C2).
//   - CESUniform: CES with simplex-uniform weights and fixed ρ.
//   - Discrete: a finite set of utility functions with probabilities
//     (Appendix A).
//   - LatentLinear: linear in a latent-feature space with weight vectors
//     drawn from an arbitrary vector sampler (used for the GMM-learned Θ of
//     the Yahoo! pipeline; weights may be negative, so it is non-monotone).
package utility

import (
	"errors"
	"fmt"
	"math"

	"github.com/regretlab/fam/internal/rng"
)

// Func is a utility function over database points. Implementations receive
// both the point's index in the database and its attribute vector:
// vector-based families (Linear, CES) ignore the index, while Table-based
// families ignore the vector. All utilities must be non-negative and finite
// for valid inputs.
type Func interface {
	Value(idx int, p []float64) float64
}

// Linear is f(p) = W·p.
type Linear struct {
	W []float64
}

// Value implements Func.
func (l Linear) Value(_ int, p []float64) float64 {
	var s float64
	for i, w := range l.W {
		s += w * p[i]
	}
	return s
}

// CES is the constant-elasticity-of-substitution utility
// f(p) = (Σ w_i p_i^ρ)^(1/ρ) with 0 < ρ <= 1. At ρ = 1 it degenerates to
// Linear; smaller ρ rewards balanced points more.
type CES struct {
	W   []float64
	Rho float64
}

// Value implements Func.
func (c CES) Value(_ int, p []float64) float64 {
	var s float64
	for i, w := range c.W {
		v := p[i]
		if v < 0 {
			v = 0
		}
		s += w * math.Pow(v, c.Rho)
	}
	if s <= 0 {
		return 0
	}
	return math.Pow(s, 1/c.Rho)
}

// Table holds one explicit utility value per database point, indexed by the
// point's position in the database.
type Table struct {
	U []float64
}

// Value implements Func. Out-of-range indices score zero.
func (t Table) Value(idx int, _ []float64) float64 {
	if idx < 0 || idx >= len(t.U) {
		return 0
	}
	return t.U[idx]
}

// Distribution is a distribution Θ over utility functions.
type Distribution interface {
	// Sample draws one utility function.
	Sample(g *rng.RNG) Func
	// Monotone reports whether every function in the support is
	// non-decreasing in every attribute. When true, each user's favorite
	// point lies on the skyline, enabling the skyline preprocessing step.
	Monotone() bool
	// Dim returns the attribute dimensionality the sampled functions
	// expect, or 0 when the functions are index-based (Table).
	Dim() int
	// Name is a short identifier used in experiment reports.
	Name() string
}

// IsLinear reports whether dist samples plain linear functions w·p of the
// point's attributes with non-negative weights — the Θ for which
// MRR-GREEDY can compute each candidate's maximum regret ratio exactly by
// LP. LatentLinear is linear in latent features, not in the attributes,
// so it does not qualify.
func IsLinear(dist Distribution) bool {
	switch dist.(type) {
	case UniformSimplexLinear, UniformBoxLinear:
		return true
	}
	return false
}

// ErrBadDim is returned by constructors given non-positive dimensions.
var ErrBadDim = errors.New("utility: dimension must be positive")

// UniformSimplexLinear samples Linear functions with weights uniform on the
// probability simplex.
type UniformSimplexLinear struct {
	D int
}

// NewUniformSimplexLinear validates the dimension.
func NewUniformSimplexLinear(d int) (UniformSimplexLinear, error) {
	if d <= 0 {
		return UniformSimplexLinear{}, ErrBadDim
	}
	return UniformSimplexLinear{D: d}, nil
}

// Sample implements Distribution.
func (u UniformSimplexLinear) Sample(g *rng.RNG) Func { return Linear{W: g.Dirichlet(1, u.D)} }

// Monotone implements Distribution.
func (u UniformSimplexLinear) Monotone() bool { return true }

// Dim implements Distribution.
func (u UniformSimplexLinear) Dim() int { return u.D }

// Name implements Distribution.
func (u UniformSimplexLinear) Name() string { return fmt.Sprintf("uniform-simplex-linear(d=%d)", u.D) }

// UniformBoxLinear samples Linear functions with weights uniform on the
// unit box [0,1]^d — the measure integrated in closed form by the 2-d
// dynamic program.
type UniformBoxLinear struct {
	D int
}

// NewUniformBoxLinear validates the dimension.
func NewUniformBoxLinear(d int) (UniformBoxLinear, error) {
	if d <= 0 {
		return UniformBoxLinear{}, ErrBadDim
	}
	return UniformBoxLinear{D: d}, nil
}

// Sample implements Distribution.
func (u UniformBoxLinear) Sample(g *rng.RNG) Func {
	w := make([]float64, u.D)
	g.UniformVec(w)
	return Linear{W: w}
}

// Monotone implements Distribution.
func (u UniformBoxLinear) Monotone() bool { return true }

// Dim implements Distribution.
func (u UniformBoxLinear) Dim() int { return u.D }

// Name implements Distribution.
func (u UniformBoxLinear) Name() string { return fmt.Sprintf("uniform-box-linear(d=%d)", u.D) }

// CESUniform samples CES functions with simplex-uniform weights and a fixed
// elasticity parameter ρ in (0, 1].
type CESUniform struct {
	D   int
	Rho float64
}

// NewCESUniform validates the parameters.
func NewCESUniform(d int, rho float64) (CESUniform, error) {
	if d <= 0 {
		return CESUniform{}, ErrBadDim
	}
	if rho <= 0 || rho > 1 {
		return CESUniform{}, fmt.Errorf("utility: CES rho must be in (0,1], got %v", rho)
	}
	return CESUniform{D: d, Rho: rho}, nil
}

// Sample implements Distribution.
func (c CESUniform) Sample(g *rng.RNG) Func { return CES{W: g.Dirichlet(1, c.D), Rho: c.Rho} }

// Monotone implements Distribution.
func (c CESUniform) Monotone() bool { return true }

// Dim implements Distribution.
func (c CESUniform) Dim() int { return c.D }

// Name implements Distribution.
func (c CESUniform) Name() string { return fmt.Sprintf("ces(d=%d,rho=%g)", c.D, c.Rho) }

// Discrete is a finite distribution over explicit utility functions
// (Appendix A of the paper). Probabilities need not be normalized.
type Discrete struct {
	Funcs    []Func
	Probs    []float64
	monotone bool
	cdf      []float64
}

// NewDiscrete builds a Discrete distribution. monotone declares whether all
// member functions are monotone (the constructor cannot verify arbitrary
// Funcs, so the caller asserts it).
func NewDiscrete(funcs []Func, probs []float64, monotone bool) (*Discrete, error) {
	if len(funcs) == 0 {
		return nil, errors.New("utility: Discrete needs at least one function")
	}
	if len(probs) != len(funcs) {
		return nil, fmt.Errorf("utility: %d funcs but %d probabilities", len(funcs), len(probs))
	}
	cdf := make([]float64, len(probs))
	var run float64
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("utility: probability %d is %v", i, p)
		}
		run += p
		cdf[i] = run
	}
	if run <= 0 {
		return nil, errors.New("utility: probabilities sum to zero")
	}
	return &Discrete{Funcs: funcs, Probs: probs, monotone: monotone, cdf: cdf}, nil
}

// Sample implements Distribution.
func (d *Discrete) Sample(g *rng.RNG) Func { return d.Funcs[g.CategoricalCDF(d.cdf)] }

// Monotone implements Distribution.
func (d *Discrete) Monotone() bool { return d.monotone }

// Dim implements Distribution. Table-based members make this 0.
func (d *Discrete) Dim() int {
	if l, ok := d.Funcs[0].(Linear); ok {
		return len(l.W)
	}
	if c, ok := d.Funcs[0].(CES); ok {
		return len(c.W)
	}
	return 0
}

// Name implements Distribution.
func (d *Discrete) Name() string { return fmt.Sprintf("discrete(%d)", len(d.Funcs)) }

// VectorSampler produces weight vectors; the Gaussian-mixture model in
// internal/gmm implements it.
type VectorSampler interface {
	SampleVector(g *rng.RNG) []float64
	VectorDim() int
}

// LatentLinear samples Linear utility functions whose weight vectors come
// from an arbitrary VectorSampler, e.g. a GMM fitted to matrix-factorized
// user latent vectors (the Yahoo! pipeline of Section V-B2). Points are
// expected to be latent item-factor vectors. Weights may be negative, so
// the distribution is declared non-monotone; sampled utilities are shifted
// by Offset to keep them non-negative if the caller requests it.
type LatentLinear struct {
	Sampler VectorSampler
	// Offset is added to every utility value so that scores stay
	// non-negative when the latent space allows negative dot products.
	Offset float64
}

// NewLatentLinear validates the sampler.
func NewLatentLinear(s VectorSampler, offset float64) (*LatentLinear, error) {
	if s == nil {
		return nil, errors.New("utility: nil vector sampler")
	}
	if s.VectorDim() <= 0 {
		return nil, ErrBadDim
	}
	return &LatentLinear{Sampler: s, Offset: offset}, nil
}

// offsetLinear is Linear plus a constant, clamped at zero.
type offsetLinear struct {
	w      []float64
	offset float64
}

// Value implements Func.
func (o offsetLinear) Value(_ int, p []float64) float64 {
	var s float64
	for i, w := range o.w {
		s += w * p[i]
	}
	s += o.offset
	if s < 0 {
		return 0
	}
	return s
}

// Sample implements Distribution.
func (l *LatentLinear) Sample(g *rng.RNG) Func {
	return offsetLinear{w: l.Sampler.SampleVector(g), offset: l.Offset}
}

// Monotone implements Distribution.
func (l *LatentLinear) Monotone() bool { return false }

// Dim implements Distribution.
func (l *LatentLinear) Dim() int { return l.Sampler.VectorDim() }

// Name implements Distribution.
func (l *LatentLinear) Name() string { return fmt.Sprintf("latent-linear(d=%d)", l.Dim()) }

// Footprint returns the exact resident bytes of one utility function's
// payload: the weight (or table) vector plus its slice header and any
// scalar fields. Unknown implementations get a conservative 64-byte
// estimate — the pre-exact-sizing default. Serving-side caches use this
// to make byte budgets real instead of guessed.
func Footprint(f Func) int64 {
	const sliceHeader = 24
	switch t := f.(type) {
	case Linear:
		return sliceHeader + int64(len(t.W))*8
	case CES:
		return sliceHeader + 8 + int64(len(t.W))*8
	case Table:
		return sliceHeader + int64(len(t.U))*8
	case offsetLinear:
		return sliceHeader + 8 + int64(len(t.w))*8
	default:
		return 64
	}
}
