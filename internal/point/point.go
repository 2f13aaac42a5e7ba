// Package point defines the primitive data-point operations shared by the
// whole repository: dominance tests, normalization to the unit box (the
// paper assumes every utility value is at most 1), and basic validation.
//
// Throughout the repository, "larger is better" on every attribute: a point
// p dominates q when p is at least as good on every attribute and strictly
// better on at least one. This is the convention of the skyline literature
// the paper builds on.
package point

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned when an operation needs at least one point.
var ErrEmpty = errors.New("point: empty point set")

// ErrRagged is returned when points do not all share one dimensionality.
var ErrRagged = errors.New("point: ragged point set")

// Dominates reports whether p dominates q: p[i] >= q[i] for all i and
// p[i] > q[i] for some i. The slices must have equal length.
func Dominates(p, q []float64) bool {
	strict := false
	for i := range p {
		if p[i] < q[i] {
			return false
		}
		if p[i] > q[i] {
			strict = true
		}
	}
	return strict
}

// Validate checks that points is non-empty, rectangular, and free of NaNs
// and infinities. It returns the common dimensionality.
func Validate(points [][]float64) (int, error) {
	if len(points) == 0 {
		return 0, ErrEmpty
	}
	d := len(points[0])
	if d == 0 {
		return 0, errors.New("point: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != d {
			return 0, fmt.Errorf("%w: point %d has %d attributes, want %d", ErrRagged, i, len(p), d)
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("point: point %d attribute %d is %v", i, j, v)
			}
		}
	}
	return d, nil
}

// Normalize rescales each attribute to [0, 1] using a min-max transform and
// returns a new point set (the input is not modified). Constant attributes
// map to 1 so that "larger is better" keeps every point equally good on
// them. The paper assumes utilities are at most 1; normalizing the data to
// the unit box makes that hold for all weight vectors in the unit box too.
func Normalize(points [][]float64) ([][]float64, error) {
	d, err := Validate(points)
	if err != nil {
		return nil, err
	}
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range points {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	out := make([][]float64, len(points))
	for i, p := range points {
		q := make([]float64, d)
		for j, v := range p {
			if hi[j] > lo[j] {
				q[j] = (v - lo[j]) / (hi[j] - lo[j])
			} else {
				q[j] = 1
			}
		}
		out[i] = q
	}
	return out, nil
}

// Select returns the subset of points at the given indices.
func Select(points [][]float64, indices []int) [][]float64 {
	out := make([][]float64, len(indices))
	for i, idx := range indices {
		out[i] = points[idx]
	}
	return out
}
