// Package stats provides the summary statistics the evaluation section
// reports: mean, variance, and the regret-ratio-at-percentile
// curves of Figures 3 and 10–12.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs (the paper's Definition 5
// is a population quantity over the sampled users, not an n-1 estimator).
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs)), nil
}

// Percentiles evaluates several percentiles with one sort.
func Percentiles(xs []float64, ps []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("stats: percentile out of [0,100]")
		}
		if p == 0 {
			out[i] = sorted[0]
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		out[i] = sorted[rank-1]
	}
	return out, nil
}

// WeightedMean returns Σ w_i·x_i / Σ w_i. Weights must be non-negative
// with positive total.
func WeightedMean(xs, ws []float64) (float64, error) {
	if err := checkWeights(xs, ws); err != nil {
		return 0, err
	}
	var num, den float64
	for i, x := range xs {
		num += ws[i] * x
		den += ws[i]
	}
	return num / den, nil
}

// WeightedVariance returns the weighted population variance
// Σ w_i·(x_i − μ)² / Σ w_i with μ the weighted mean.
func WeightedVariance(xs, ws []float64) (float64, error) {
	m, err := WeightedMean(xs, ws)
	if err != nil {
		return 0, err
	}
	var num, den float64
	for i, x := range xs {
		d := x - m
		num += ws[i] * d * d
		den += ws[i]
	}
	return num / den, nil
}

// WeightedPercentiles generalizes Percentiles by nearest-rank on the
// cumulative weight: the p-th percentile is the smallest value v with
// cumulative weight(x ≤ v) ≥ p% of the total weight.
func WeightedPercentiles(xs, ws []float64, ps []float64) ([]float64, error) {
	if err := checkWeights(xs, ws); err != nil {
		return nil, err
	}
	type pair struct{ x, w float64 }
	pairs := make([]pair, len(xs))
	var total float64
	for i := range xs {
		pairs[i] = pair{xs[i], ws[i]}
		total += ws[i]
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].x < pairs[j].x })
	out := make([]float64, len(ps))
	for pi, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("stats: percentile out of [0,100]")
		}
		target := p / 100 * total
		var cum float64
		val := pairs[len(pairs)-1].x
		for _, pr := range pairs {
			cum += pr.w
			if cum >= target {
				val = pr.x
				break
			}
		}
		if p == 0 {
			val = pairs[0].x
		}
		out[pi] = val
	}
	return out, nil
}

func checkWeights(xs, ws []float64) error {
	if len(xs) == 0 {
		return ErrEmpty
	}
	if len(ws) != len(xs) {
		return errors.New("stats: weights length mismatch")
	}
	var total float64
	for _, w := range ws {
		if w < 0 || math.IsNaN(w) {
			return errors.New("stats: weights must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		return errors.New("stats: total weight must be positive")
	}
	return nil
}
