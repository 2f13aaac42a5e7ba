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

// SetMax is the per-entry At loop of a set's satisfaction, floored at 0.
func TestSetMaxMatchesAt(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		m := New(29, 41, f32)
		fillRandom(m, 5, true)
		fillTable(m, 0, make([]float64, m.Points())) // an all-zero row
		rng := rand.New(rand.NewSource(3))
		for _, idx32 := range subsets(m.Points(), rng) {
			idx := make([]int, len(idx32))
			for i, p := range idx32 {
				idx[i] = int(p)
			}
			for u := 0; u < m.Users(); u++ {
				var want float64
				for _, p := range idx {
					if v := m.At(u, p); v > want {
						want = v
					}
				}
				if got := m.SetMax(u, idx); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("f32=%v u=%d: SetMax=%v, At loop %v", f32, u, got, want)
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

// TestReleaseReuse pins the New/Release contract: one spare per storage
// mode, taken only at the exact length, dropped by a New of another
// length, replaced by a later Release, and never kept above
// spareMaxBytes.
func TestReleaseReuse(t *testing.T) {
	New(6, 5, false) // empty any spare a test before left
	New(6, 5, true)
	a := New(6, 5, false)
	arr := &a.f64[0]
	a.Release()
	if a.f64 != nil || a.f32 != nil {
		t.Fatal("Release left the matrix its array")
	}
	if b := New(6, 5, true); !b.Float32() {
		t.Fatal("a float32 New returned float64 storage")
	}
	b := New(5, 6, false) // same length, other shape
	if &b.f64[0] != arr {
		t.Fatal("New did not take the spare of its length")
	}
	if got, want := b.FootprintBytes(), int64(24+6*5*8); got != want {
		t.Fatalf("reused footprint: got %d want %d", got, want)
	}
	if c := New(6, 5, false); &c.f64[0] == arr {
		t.Fatal("the spare was handed out twice")
	}

	b.Release()
	if c := New(6, 4, false); &c.f64[0] == arr {
		t.Fatal("New took a spare of another length")
	}
	if c := New(6, 5, false); &c.f64[0] == arr {
		t.Fatal("a New of another length did not drop the spare")
	}

	d := New(6, 5, false)
	d.Release()
	e := New(2, 2, false)
	eArr := &e.f64[0]
	e.Release() // replaces d's array
	if c := New(2, 2, false); &c.f64[0] != eArr {
		t.Fatal("a later Release did not replace the held spare")
	}

	f := New(6, 5, true)
	fArr := &f.f32[0]
	f.Release()
	if c := New(6, 5, false); c.Float32() {
		t.Fatal("a float64 New returned float32 storage")
	}
	if c := New(6, 5, true); &c.f32[0] != fArr {
		t.Fatal("the float32 spare was not kept apart from the float64 one")
	}

	// One row past the bound in each mode is not kept.
	for _, f32 := range []bool{false, true} {
		width := spareMaxBytes / 8
		if f32 {
			width = spareMaxBytes / 4
		}
		big := New(2, width/2+1, f32)
		big.Release()
		if spare.f64 != nil || spare.f32 != nil {
			t.Fatalf("f32=%v: an array past spareMaxBytes was kept", f32)
		}
		small := New(2, width/2, f32)
		small.Release()
		if f32 && len(spare.f32) != width || !f32 && len(spare.f64) != width {
			t.Fatalf("f32=%v: an array of exactly spareMaxBytes was not kept", f32)
		}
		New(2, width/2, f32) // empty the slot
	}
}

// TestLooseSlotReleaseReuse pins an Engine slot's contract: a New takes
// the held array when its capacity is users×points up to 1/16 over, the
// matrix keeps that capacity and FootprintBytes counts it, a New outside
// the window drops the array, and the slot is apart from the package's.
func TestLooseSlotReleaseReuse(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		elem := int64(8)
		if f32 {
			elem = 4
		}
		s := NewSlot()
		first := func(m *Matrix) any {
			if f32 {
				return &m.f32[:1][0]
			}
			return &m.f64[:1][0]
		}
		a := s.New(10, 160, f32) // capacity 1600
		arr := first(a)
		a.Release()
		if c := New(10, 160, f32); first(c) == arr {
			t.Fatalf("f32=%v: the package New took an Engine slot's array", f32)
		}
		b := s.New(10, 151, f32) // 1600·16 ≤ 1510·17
		if first(b) != arr {
			t.Fatalf("f32=%v: a New 1/16 under the held capacity did not take it", f32)
		}
		if got, want := b.FootprintBytes(), 24+1600*elem; got != want {
			t.Fatalf("f32=%v: footprint %d, want the whole capacity's %d", f32, got, want)
		}
		if b.Users() != 10 || b.Points() != 151 {
			t.Fatalf("f32=%v: reused matrix is %d×%d", f32, b.Users(), b.Points())
		}
		b.Release()
		if c := s.New(10, 161, f32); first(c) == arr {
			t.Fatalf("f32=%v: a New over the held capacity took it", f32)
		}
		c := s.New(10, 160, f32)
		if first(c) == arr {
			t.Fatalf("f32=%v: a New that missed kept the array in the slot", f32)
		}
		arr = first(c)
		c.Release()
		if d := s.New(10, 150, f32); first(d) == arr { // 1600·16 > 1500·17
			t.Fatalf("f32=%v: a New more than 1/16 under the held capacity took it", f32)
		}
	}
}
