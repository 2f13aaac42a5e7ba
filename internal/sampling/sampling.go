// Package sampling implements the Monte-Carlo machinery of Section III-C:
// the Chernoff-bound sample-size formula of Theorem 4 (N ≥ 3·ln(1/σ)/ε²),
// drawing N utility functions from Θ, and the Table V sample-size table.
package sampling

import (
	"errors"
	"fmt"
	"math"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/utility"
)

// ErrBadParam is returned for error/confidence parameters outside (0, 1).
var ErrBadParam = errors.New("sampling: parameters must lie in (0,1)")

// ErrTooLarge is returned when Theorem 4's sample size does not fit in
// an int.
var ErrTooLarge = errors.New("sampling: sample size overflows int")

// SampleSize returns the smallest N satisfying Theorem 4: with N sampled
// utility functions the estimated average regret ratio deviates from the
// exact value by less than eps with confidence at least 1-sigma.
func SampleSize(eps, sigma float64) (int, error) {
	if eps <= 0 || eps >= 1 || sigma <= 0 || sigma >= 1 {
		return 0, fmt.Errorf("%w: eps=%v sigma=%v", ErrBadParam, eps, sigma)
	}
	n := math.Ceil(3 * math.Log(1/sigma) / (eps * eps))
	// float64(math.MaxInt) rounds up to 2^63 on 64-bit platforms, so
	// anything that passes converts without overflow.
	if !(n < float64(math.MaxInt)) {
		return 0, fmt.Errorf("%w: eps=%v sigma=%v", ErrTooLarge, eps, sigma)
	}
	return int(n), nil
}

// Eps inverts SampleSize: the error bound achieved by N samples at
// confidence 1-sigma (eps = sqrt(3·ln(1/σ)/N), from the proof of
// Theorem 4).
func Eps(n int, sigma float64) (float64, error) {
	if n <= 0 {
		return 0, errors.New("sampling: N must be positive")
	}
	if sigma <= 0 || sigma >= 1 {
		return 0, fmt.Errorf("%w: sigma=%v", ErrBadParam, sigma)
	}
	return math.Sqrt(3 * math.Log(1/sigma) / float64(n)), nil
}

// Sample draws n utility functions from dist using g.
func Sample(dist utility.Distribution, n int, g *rng.RNG) ([]utility.Func, error) {
	if dist == nil {
		return nil, errors.New("sampling: nil distribution")
	}
	if n <= 0 {
		return nil, errors.New("sampling: sample count must be positive")
	}
	out := make([]utility.Func, n)
	for i := range out {
		out[i] = dist.Sample(g)
	}
	return out, nil
}

// TableVRow is one row of the paper's Table V.
type TableVRow struct {
	Eps   float64
	Sigma float64
	N     int
}

// TableV reproduces the paper's Table V: the sample size N for the listed
// (ε, σ) pairs.
func TableV() []TableVRow {
	pairs := []struct{ eps, sigma float64 }{
		{0.01, 0.1},
		{0.001, 0.1},
		{0.0001, 0.1},
		{0.01, 0.05},
		{0.001, 0.05},
		{0.0001, 0.05},
	}
	rows := make([]TableVRow, len(pairs))
	for i, p := range pairs {
		n, err := SampleSize(p.eps, p.sigma)
		if err != nil {
			// The hard-coded pairs are valid; this is unreachable.
			panic(err)
		}
		rows[i] = TableVRow{Eps: p.eps, Sigma: p.sigma, N: n}
	}
	return rows
}
