// Package vec provides the small dense linear-algebra kernel the Gaussian
// mixture model is fitted and sampled with. It is deliberately minimal:
// dense float64 vectors and matrices, a few BLAS-1 style helpers, and a
// Cholesky factorization for sampling from multivariate Gaussians.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("vec: matrix not positive definite")

// Scale multiplies every element of a by c, in place.
func Scale(a []float64, c float64) {
	for i := range a {
		a[i] *= c
	}
}

// AddScaled computes dst += c*src in place.
// It panics if the lengths differ.
func AddScaled(dst []float64, c float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: AddScaled length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += c * v
	}
}

// Sub returns a-b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Sub length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Cholesky computes the lower-triangular L with m = L·Lᵀ.
// m must be square and symmetric positive definite; a small jitter can be
// added by the caller to regularize near-singular covariance matrices.
func (m *Matrix) Cholesky() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrDimensionMismatch, m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveLower solves L·x = b for lower-triangular L (forward substitution).
func (m *Matrix) SolveLower(b []float64) ([]float64, error) {
	if m.Rows != m.Cols || len(b) != m.Rows {
		return nil, fmt.Errorf("%w: SolveLower %dx%d with rhs %d", ErrDimensionMismatch, m.Rows, m.Cols, len(b))
	}
	x := make([]float64, len(b))
	for i := 0; i < m.Rows; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= m.At(i, j) * x[j]
		}
		d := m.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("vec: SolveLower zero diagonal at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}

// LogDetLower returns log|det(L·Lᵀ)| = 2·Σ log L_ii for lower-triangular L.
func (m *Matrix) LogDetLower() float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += math.Log(m.At(i, i))
	}
	return 2 * s
}

// AddDiagonal adds c to every diagonal element, in place.
func (m *Matrix) AddDiagonal(c float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += c
	}
}
