package kernel

import (
	"math"

	"github.com/regretlab/fam/internal/utility"
)

// Points is the candidate set of one utility fill: a contiguous m×d copy
// of the candidates' rows, plus the dataset index each one is evaluated
// at. It is the single place preprocessing computes utilities — the
// coreset filter and instance materialization both fill their rows
// through it.
//
// For a utility.Linear user the row is computed directly over the
// contiguous copy, four points at a time: four independent accumulators
// share every weight load, and there is no interface dispatch or
// [][]float64 row indirection. Every entry is still the sum
// `s := 0; s += W[i]*p[i]` in ascending i, exactly the expression of
// Linear.Value — blocking runs over points only, never over d — so each
// value is bit-identical to the per-entry call. Every other Func (CES,
// Table, LatentLinear's offset form, caller-supplied ones) falls back to
// Value at the candidate's dataset index.
type Points struct {
	points [][]float64 // the dataset the candidates index into
	idx    []int       // dataset index of each candidate; nil = every point
	d      int         // shared row length
	flat   []float64   // m×d row-major copy; nil when the rows are ragged
}

// NewPoints gathers the candidates of a fill. cand lists dataset indices
// into points (nil means every point, in order); candidate j is
// points[cand[j]] and index-keyed funcs see cand[j]. The rows are copied
// into contiguous storage; ragged rows are evaluated through Value only.
func NewPoints(points [][]float64, cand []int) *Points {
	ps := &Points{points: points, idx: cand}
	m := ps.Len()
	if m == 0 {
		return ps
	}
	d := len(ps.row(0))
	for j := 0; j < m; j++ {
		if len(ps.row(j)) != d {
			return ps
		}
	}
	ps.d = d
	ps.flat = make([]float64, m*d)
	for j := 0; j < m; j++ {
		copy(ps.flat[j*d:], ps.row(j))
	}
	return ps
}

// Len returns the number of candidates m.
func (ps *Points) Len() int {
	if ps.idx != nil {
		return len(ps.idx)
	}
	return len(ps.points)
}

// index returns candidate j's dataset index.
func (ps *Points) index(j int) int {
	if ps.idx != nil {
		return ps.idx[j]
	}
	return j
}

// row returns candidate j's attribute vector.
func (ps *Points) row(j int) []float64 { return ps.points[ps.index(j)] }

// Fill writes f's utility at every point into dst[:Len()]. In a float32
// destination each value is rounded once, on store.
func Fill[T float32 | float64](ps *Points, f utility.Func, dst []T) {
	dst = dst[:ps.Len()]
	if l, ok := f.(utility.Linear); ok && ps.flat != nil && len(l.W) == ps.d {
		linearRow(l.W, ps.flat, dst)
		return
	}
	for j := range dst {
		dst[j] = T(f.Value(ps.index(j), ps.row(j)))
	}
}

// linearRow computes dst[j] = Σ_i w[i]·flat[j·d+i] in ascending i, four
// points per step, then the unblocked tail.
func linearRow[T float32 | float64](w, flat []float64, dst []T) {
	d, m := len(w), len(dst)
	j := 0
	for ; j+4 <= m; j += 4 {
		// Re-slicing each row to exactly len(w) lets the compiler drop
		// the inner loop's bounds checks.
		q := flat[j*d : (j+4)*d]
		q0, q1, q2, q3 := q[:d], q[d:][:d], q[2*d:][:d], q[3*d:][:d]
		var s0, s1, s2, s3 float64
		for i, wi := range w {
			s0 += wi * q0[i]
			s1 += wi * q1[i]
			s2 += wi * q2[i]
			s3 += wi * q3[i]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = T(s0), T(s1), T(s2), T(s3)
	}
	for ; j < m; j++ {
		q := flat[j*d:][:d]
		var s float64
		for i, wi := range w {
			s += wi * q[i]
		}
		dst[j] = T(s)
	}
}

// Scan checks a filled row in order. bad is the first entry that is NaN,
// ±Inf or negative (-1 when every entry is a valid utility); argmax is
// the first index of the row maximum (-1 for an empty row), meaningful
// only when bad is -1.
func Scan[T float32 | float64](row []T) (bad, argmax int) {
	argmax = -1
	best := -1.0 // below every valid utility, so the first entry wins
	for j, x := range row {
		v := float64(x)
		// One comparison pair rejects NaN (both false), negatives and
		// ±Inf.
		if !(v >= 0 && v <= math.MaxFloat64) {
			return j, -1
		}
		if v > best {
			best, argmax = v, j
		}
	}
	return -1, argmax
}

// FillRow fills row u with f's utilities at ps (ps.Len() must equal
// Points()), rounding once to float32 in float32 mode.
func (m *Matrix) FillRow(u int, f utility.Func, ps *Points) {
	if m.f32 != nil {
		Fill(ps, f, m.f32[u*m.points:(u+1)*m.points])
		return
	}
	Fill(ps, f, m.f64[u*m.points:(u+1)*m.points])
}

// ScanRow is Scan over the stored row u: it validates exactly the values
// every solver observes (the rounded ones in float32 mode).
func (m *Matrix) ScanRow(u int) (bad, argmax int) {
	if m.f32 != nil {
		return Scan(m.f32[u*m.points : (u+1)*m.points])
	}
	return Scan(m.f64[u*m.points : (u+1)*m.points])
}
