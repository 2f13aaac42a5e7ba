package kernel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/regretlab/fam/internal/utility"
)

// refTwoMax is the historical per-element closure the kernel scans
// replace: visit listed columns in order, strict comparisons, sentinel
// -1/-1.0.
func refTwoMax(at func(u, p int) float64, u int, idx []int32) (int32, float64, int32, float64) {
	b1, b2 := int32(-1), int32(-1)
	v1, v2 := -1.0, -1.0
	for _, p := range idx {
		v := at(u, int(p))
		if v > v1 {
			b2, v2 = b1, v1
			b1, v1 = p, v
		} else if v > v2 {
			b2, v2 = p, v
		}
	}
	return b1, v1, b2, v2
}

func refMaxExcl(at func(u, p int) float64, u int, idx []int32, excl int32) (int32, float64) {
	bi, bv := int32(-1), -1.0
	for _, p := range idx {
		if p == excl {
			continue
		}
		if v := at(u, int(p)); v > bv {
			bi, bv = p, v
		}
	}
	return bi, bv
}

// fillTable stores the given values as row u, through the fill kernel's
// index-keyed (utility.Table) path.
func fillTable(m *Matrix, u int, vals []float64) {
	m.FillRow(u, utility.Table{U: vals}, NewPoints(make([][]float64, m.Points()), nil))
}

func fillRandom(m *Matrix, seed int64, ties bool) {
	rng := rand.New(rand.NewSource(seed))
	for u := 0; u < m.Users(); u++ {
		row := make([]float64, m.Points())
		for p := range row {
			v := rng.Float64()
			if ties && rng.Intn(4) == 0 {
				// Quantize hard so duplicate values are common and the
				// lowest-index tie-break is actually exercised.
				v = math.Floor(v*4) / 4
			}
			row[p] = v
		}
		fillTable(m, u, row)
	}
}

func subsets(n int, rng *rand.Rand) [][]int32 {
	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i)
	}
	sparse := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			sparse = append(sparse, int32(i))
		}
	}
	return [][]int32{full, sparse, {}, {int32(n / 2)}}
}

func TestScansMatchReference(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		m := New(37, 53, f32)
		fillRandom(m, 7, true)
		rng := rand.New(rand.NewSource(11))
		for _, idx := range subsets(m.Points(), rng) {
			for u := 0; u < m.Users(); u++ {
				b1, v1, b2, v2 := m.RowTwoMax(u, idx)
				rb1, rv1, rb2, rv2 := refTwoMax(m.At, u, idx)
				if b1 != rb1 || v1 != rv1 || b2 != rb2 || v2 != rv2 {
					t.Fatalf("f32=%v u=%d: RowTwoMax=(%d,%v,%d,%v) ref=(%d,%v,%d,%v)",
						f32, u, b1, v1, b2, v2, rb1, rv1, rb2, rv2)
				}
				bi, bv := m.RowMax(u, idx)
				if rbi, rbv := refMaxExcl(m.At, u, idx, -1); bi != rbi || bv != rbv {
					t.Fatalf("f32=%v u=%d: RowMax=(%d,%v) ref=(%d,%v)", f32, u, bi, bv, rbi, rbv)
				}
				var excl int32 = -1
				if len(idx) > 0 {
					excl = idx[len(idx)/2]
				}
				bi, bv = m.RowMaxExcl(u, idx, excl)
				if rbi, rbv := refMaxExcl(m.At, u, idx, excl); bi != rbi || bv != rbv {
					t.Fatalf("f32=%v u=%d excl=%d: RowMaxExcl=(%d,%v) ref=(%d,%v)",
						f32, u, excl, bi, bv, rbi, rbv)
				}
			}
		}
	}
}

func TestTransposeMatchesAt(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		// Sizes straddling the tile edge exercise the partial-tile paths.
		for _, dims := range [][2]int{{3, 5}, {Block, Block}, {Block + 9, 2*Block + 1}} {
			m := New(dims[0], dims[1], f32)
			fillRandom(m, 13, false)
			tp := m.Transpose()
			for p := 0; p < m.Points(); p++ {
				col := tp.Col(p)
				if len(col) != m.Users() {
					t.Fatalf("f32=%v dims=%v: col %d has length %d", f32, dims, p, len(col))
				}
				for u := 0; u < m.Users(); u++ {
					if col[u] != m.At(u, p) {
						t.Fatalf("f32=%v dims=%v: Col(%d)[%d]=%v At=%v", f32, dims, p, u, col[u], m.At(u, p))
					}
				}
			}
		}
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	m := New(2, 2, true)
	v := 0.1 // not representable exactly in float32
	fillTable(m, 0, []float64{v, 0})
	want := float64(float32(v))
	if got := m.At(0, 0); got != want {
		t.Fatalf("float32 round-trip: got %v want %v", got, want)
	}
	if m.At(0, 0) == v {
		t.Fatal("float32 storage unexpectedly preserved full float64 precision")
	}
}

func TestFootprintBytes(t *testing.T) {
	const sliceHeader = 24
	if got, want := New(10, 7, false).FootprintBytes(), int64(sliceHeader+10*7*8); got != want {
		t.Fatalf("f64 footprint: got %d want %d", got, want)
	}
	if got, want := New(10, 7, true).FootprintBytes(), int64(sliceHeader+10*7*4); got != want {
		t.Fatalf("f32 footprint: got %d want %d", got, want)
	}
}
