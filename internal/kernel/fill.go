package kernel

import (
	"math"

	"github.com/regretlab/fam/internal/utility"
)

// Points is the candidate set of one utility fill: a column-major copy
// of the candidates' attributes, plus the dataset index each one is
// evaluated at. It is the single place preprocessing computes utilities
// — the coreset filter and instance materialization both fill their
// rows through it.
//
// For a utility.Linear user the row is computed over the columns in
// chunks of up to four: each chunk is one straight-line loop over the
// points that adds its columns' terms, with the weights held in
// registers, no interface dispatch and no [][]float64 row indirection.
// Partial sums stay in float64 (in a small block buffer) between chunks,
// and the last chunk stores the rounded value. Every entry is still the
// sum `s := 0; s += W[i]*p[i]` in ascending i, exactly the expression of
// Linear.Value — chunking splits the sequence of additions, never
// reorders it — so each value is bit-identical to the per-entry call in
// either storage mode. Every other Func (CES, Table, LatentLinear's
// offset form, caller-supplied ones) falls back to Value at the
// candidate's dataset index.
type Points struct {
	points [][]float64 // the dataset the candidates index into
	idx    []int       // dataset index of each candidate; nil = every point
	d      int         // shared row length
	cols   []float64   // d columns of m values; nil when the rows are ragged or empty
}

// NewPoints gathers the candidates of a fill. cand lists dataset indices
// into points (nil means every point, in order); candidate j is
// points[cand[j]] and index-keyed funcs see cand[j]. The attributes are
// copied into contiguous columns; ragged or zero-length rows are
// evaluated through Value only.
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
	if d == 0 {
		return ps
	}
	ps.d = d
	ps.cols = make([]float64, d*m)
	for j := 0; j < m; j++ {
		for i, x := range ps.row(j) {
			ps.cols[i*m+j] = x
		}
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

// Fill writes f's utility at every point into dst[:Len()] and checks the
// row it stored, with Scan's result: bad is the first entry that is NaN,
// ±Inf or negative (-1 when the row is valid), argmax the first index of
// the row maximum (-1 for an empty row), meaningful only when bad is -1.
// In a float32 destination each value is rounded once, on store, and the
// check sees the rounded values.
func Fill[T float32 | float64](ps *Points, f utility.Func, dst []T) (bad, argmax int) {
	dst = dst[:ps.Len()]
	if l, ok := f.(utility.Linear); ok && ps.cols != nil && len(l.W) == ps.d {
		if argmax = linearRow(l.W, ps.cols, dst); argmax >= 0 {
			return -1, argmax
		}
		return Scan(dst)
	}
	for j := range dst {
		dst[j] = T(f.Value(ps.index(j), ps.row(j)))
	}
	return Scan(dst)
}

// fillBlock is the number of points a Linear row computes at a time: its
// float64 partial sums (2 KB) stay in L1 between column chunks.
const fillBlock = 256

// negZero is the bit pattern of −0, which ranks as +0 in the row check.
const negZero = 1 << 63

// linearRow stores dst[j] = T(Σ_i w[i]·x_i[j]) in ascending i over the
// len(w) columns of cols and returns the row's argmax when every stored
// value is a valid utility, or -1 when the row is empty or some entry is
// invalid (the caller then runs the ordered Scan).
//
// The check ranks each stored value by its float bits, with −0 mapped to
// +0: on non-negative floats that order is the numeric one, and every
// NaN, −Inf or negative value ranks above +Inf. So the row is valid
// exactly when its largest key is below +Inf's, and the first entry
// holding that key is Scan's argmax.
func linearRow[T float32 | float64](w, cols []float64, dst []T) int {
	d, m := len(w), len(dst)
	var buf [fillBlock]float64
	var best uint64 // the row's largest key so far
	argmax := 0     // first entry with key best; 0 also when the row is all zeros
	for j0 := 0; j0 < m; j0 += fillBlock {
		n := min(fillBlock, m-j0)
		acc := buf[:n]
		col := func(i int) []float64 { return cols[i*m+j0:][:n] }
		i := 0
		if d > 4 {
			// The first chunk starts from zero. A one-chunk row instead
			// reads the zeros buf starts with, which nothing overwrites.
			set4(acc, col(0), col(1), col(2), col(3), w[0], w[1], w[2], w[3])
			for i = 4; d-i > 4; i += 4 {
				add4(acc, col(i), col(i+1), col(i+2), col(i+3), w[i], w[i+1], w[i+2], w[i+3])
			}
		}
		var k uint64
		var a int
		out := dst[j0 : j0+n]
		switch d - i {
		case 1:
			k, a = store1(out, acc, col(i), w[i])
		case 2:
			k, a = store2(out, acc, col(i), col(i+1), w[i], w[i+1])
		case 3:
			k, a = store3(out, acc, col(i), col(i+1), col(i+2), w[i], w[i+1], w[i+2])
		default:
			k, a = store4(out, acc, col(i), col(i+1), col(i+2), col(i+3), w[i], w[i+1], w[i+2], w[i+3])
		}
		if k > best {
			best, argmax = k, j0+a
		}
	}
	if m == 0 || best >= math.Float64bits(math.Inf(1)) {
		return -1
	}
	return argmax
}

// set4 starts the partial sums with four columns' terms.
func set4(acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) {
	x0, x1, x2, x3 = x0[:len(acc)], x1[:len(acc)], x2[:len(acc)], x3[:len(acc)]
	for j := range acc {
		s := 0.0
		s += w0 * x0[j]
		s += w1 * x1[j]
		s += w2 * x2[j]
		s += w3 * x3[j]
		acc[j] = s
	}
}

// add4 adds four columns' terms to the partial sums, in column order.
func add4(acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) {
	x0, x1, x2, x3 = x0[:len(acc)], x1[:len(acc)], x2[:len(acc)], x3[:len(acc)]
	for j, s := range acc {
		s += w0 * x0[j]
		s += w1 * x1[j]
		s += w2 * x2[j]
		s += w3 * x3[j]
		acc[j] = s
	}
}

// The store functions finish a block with its last one to four columns:
// each adds them to the partial sum, stores T(s), and returns the
// block's largest key and the first index holding it (0 when every key
// is +0's). A −0 never raises the key: it ranks as +0.

func store1[T float32 | float64](dst []T, acc, x0 []float64, w0 float64) (best uint64, arg int) {
	dst, x0 = dst[:len(acc)], x0[:len(acc)]
	for j, s := range acc {
		s += w0 * x0[j]
		v := T(s)
		dst[j] = v
		if k := math.Float64bits(float64(v)); k > best && k != negZero {
			best, arg = k, j
		}
	}
	return best, arg
}

func store2[T float32 | float64](dst []T, acc, x0, x1 []float64, w0, w1 float64) (best uint64, arg int) {
	dst, x0, x1 = dst[:len(acc)], x0[:len(acc)], x1[:len(acc)]
	for j, s := range acc {
		s += w0 * x0[j]
		s += w1 * x1[j]
		v := T(s)
		dst[j] = v
		if k := math.Float64bits(float64(v)); k > best && k != negZero {
			best, arg = k, j
		}
	}
	return best, arg
}

func store3[T float32 | float64](dst []T, acc, x0, x1, x2 []float64, w0, w1, w2 float64) (best uint64, arg int) {
	dst, x0, x1, x2 = dst[:len(acc)], x0[:len(acc)], x1[:len(acc)], x2[:len(acc)]
	for j, s := range acc {
		s += w0 * x0[j]
		s += w1 * x1[j]
		s += w2 * x2[j]
		v := T(s)
		dst[j] = v
		if k := math.Float64bits(float64(v)); k > best && k != negZero {
			best, arg = k, j
		}
	}
	return best, arg
}

func store4[T float32 | float64](dst []T, acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) (best uint64, arg int) {
	dst, x0, x1, x2, x3 = dst[:len(acc)], x0[:len(acc)], x1[:len(acc)], x2[:len(acc)], x3[:len(acc)]
	for j, s := range acc {
		s += w0 * x0[j]
		s += w1 * x1[j]
		s += w2 * x2[j]
		s += w3 * x3[j]
		v := T(s)
		dst[j] = v
		if k := math.Float64bits(float64(v)); k > best && k != negZero {
			best, arg = k, j
		}
	}
	return best, arg
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
// Points()), rounding once to float32 in float32 mode, and returns Fill's
// check of the stored row: exactly the values every solver observes.
func (m *Matrix) FillRow(u int, f utility.Func, ps *Points) (bad, argmax int) {
	if m.f32 != nil {
		return Fill(ps, f, m.f32[u*m.points:(u+1)*m.points])
	}
	return Fill(ps, f, m.f64[u*m.points:(u+1)*m.points])
}
