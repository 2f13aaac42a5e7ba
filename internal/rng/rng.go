// Package rng centralizes all randomness in the repository. Every sampler
// takes an explicit *RNG constructed from a 64-bit seed, so experiments are
// reproducible bit-for-bit across runs and machines.
package rng

import (
	"math"
	"math/rand/v2"
)

// RNG wraps a seeded PCG source with the distribution samplers the
// reproduction needs (Gaussian, Dirichlet, unit sphere/simplex, choice).
type RNG struct {
	r *rand.Rand
}

// New returns a deterministic RNG derived from seed.
func New(seed uint64) *RNG {
	// Two distinct streams derived from one seed; the golden-ratio constant
	// decorrelates the second word.
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform value in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Normal returns a standard Gaussian sample (Box–Muller is avoided in favor
// of the rand/v2 ziggurat-backed NormFloat64).
func (g *RNG) Normal() float64 { return g.r.NormFloat64() }

// NormalVec fills out with i.i.d. standard Gaussians.
func (g *RNG) NormalVec(out []float64) {
	for i := range out {
		out[i] = g.r.NormFloat64()
	}
}

// UniformVec fills out with i.i.d. Uniform[0,1) samples.
func (g *RNG) UniformVec(out []float64) {
	for i := range out {
		out[i] = g.r.Float64()
	}
}

// Exponential returns an Exp(1) sample.
func (g *RNG) Exponential() float64 { return g.r.ExpFloat64() }

// Dirichlet samples from a symmetric Dirichlet(alpha) distribution of the
// given dimension. alpha = 1 gives the uniform distribution on the simplex,
// which is the standard model for "uniformly distributed linear utility
// functions" over normalized weight vectors.
func (g *RNG) Dirichlet(alpha float64, dim int) []float64 {
	out := make([]float64, dim)
	var sum float64
	for i := range out {
		out[i] = g.Gamma(alpha)
		sum += out[i]
	}
	if sum == 0 {
		// All-zero draw is measure zero but guard anyway: fall back to the
		// barycenter.
		for i := range out {
			out[i] = 1 / float64(dim)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Gamma samples from Gamma(shape, 1) using Marsaglia–Tsang for shape >= 1
// and the boosting trick for shape < 1.
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// UnitSphereNonNeg samples a uniform direction on the non-negative orthant
// of the unit sphere in the given dimension (the standard distribution for
// max-regret-ratio experiments).
func (g *RNG) UnitSphereNonNeg(dim int) []float64 {
	out := make([]float64, dim)
	for {
		var norm float64
		for i := range out {
			v := math.Abs(g.r.NormFloat64())
			out[i] = v
			norm += v * v
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for i := range out {
				out[i] /= norm
			}
			return out
		}
	}
}

// Shuffle randomly permutes the first n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Choice returns k distinct indices sampled uniformly from [0, n) in random
// order. It panics if k > n.
func (g *RNG) Choice(n, k int) []int {
	if k > n {
		panic("rng: Choice k > n")
	}
	perm := g.r.Perm(n)
	return perm[:k]
}

// CategoricalCDF samples an index from the categorical distribution whose
// cumulative weights are cdf (cdf must be non-decreasing with cdf[len-1]
// equal to the total mass).
func (g *RNG) CategoricalCDF(cdf []float64) int {
	total := cdf[len(cdf)-1]
	u := g.r.Float64() * total
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Categorical samples an index proportional to the non-negative weights.
func (g *RNG) Categorical(weights []float64) int {
	cdf := make([]float64, len(weights))
	var run float64
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		run += w
		cdf[i] = run
	}
	if run == 0 {
		return g.IntN(len(weights))
	}
	return g.CategoricalCDF(cdf)
}
