// Package kernel provides the dense utility-matrix storage, the fill
// that computes every preprocessing utility (Points and Fill, in
// fill.go: column-major candidates, and a check of each row for invalid
// values and its best point made as the row is stored), and the scan
// primitives shared by every solver's inner loop. A Matrix is
// the N×n utility table in user-major layout — each user's row is one
// contiguous block, so the per-candidate scans of GREEDY-SHRINK walk
// memory linearly — with an opt-in float32 storage mode that halves the
// resident bytes at the cost of ~7 decimal digits. A Transposed view is
// the point-major copy used by insertion-style solvers (GreedyAdd),
// whose hot loop reads one point's utility across all users: the
// transpose turns that strided column access into a contiguous pass.
//
// Determinism contract: every scan visits the supplied index list in
// order with strict comparisons (`v > best`), so the lowest index wins
// ties exactly like the historical per-element loops they replace. In
// float32 mode values are converted with float64(float32(v)) at both
// store and load, so At, Row scans and Transposed columns all observe
// the identical rounded value — results are bit-deterministic within a
// storage mode; only across modes do they differ.
package kernel

// Block is the tile edge used by the cache-blocked transpose. 64×64
// float64 tiles (32 KB source + 32 KB destination working set) fit
// comfortably in L1/L2 on every current core.
const Block = 64

// Matrix is a dense users×points utility table with contiguous
// user-major rows, stored as float64 or (opt-in) float32.
type Matrix struct {
	users  int
	points int
	f64    []float64
	f32    []float32
}

// New allocates a users×points matrix. float32Mode selects the halved
// storage representation.
func New(users, points int, float32Mode bool) *Matrix {
	m := &Matrix{users: users, points: points}
	if float32Mode {
		m.f32 = make([]float32, users*points)
	} else {
		m.f64 = make([]float64, users*points)
	}
	return m
}

// Users returns the row count N.
func (m *Matrix) Users() int { return m.users }

// Points returns the column count n.
func (m *Matrix) Points() int { return m.points }

// Float32 reports whether the matrix uses float32 storage.
func (m *Matrix) Float32() bool { return m.f32 != nil }

// At returns entry (u, p) as float64. In float32 mode the value is the
// stored rounding of the original — identical to what every scan sees.
func (m *Matrix) At(u, p int) float64 {
	if m.f32 != nil {
		return float64(m.f32[u*m.points+p])
	}
	return m.f64[u*m.points+p]
}

// FootprintBytes returns the exact resident bytes of the backing array
// plus its slice header.
func (m *Matrix) FootprintBytes() int64 {
	const sliceHeader = 24
	if m.f32 != nil {
		return sliceHeader + int64(len(m.f32))*4
	}
	return sliceHeader + int64(len(m.f64))*8
}

// RowTwoMax scans row u over the listed columns (visited in order) and
// returns the best and second-best entries. Sentinels are (-1, -1.0)
// when fewer than one/two columns are listed; callers clamp negative
// values to zero exactly like the historical closures. The first index
// encountered wins ties via the strict `>` comparisons.
func (m *Matrix) RowTwoMax(u int, idx []int32) (b1 int32, v1 float64, b2 int32, v2 float64) {
	b1, b2 = -1, -1
	v1, v2 = -1, -1
	if m.f32 != nil {
		row := m.f32[u*m.points : (u+1)*m.points]
		for _, p := range idx {
			v := float64(row[p])
			if v > v1 {
				b2, v2 = b1, v1
				b1, v1 = p, v
			} else if v > v2 {
				b2, v2 = p, v
			}
		}
		return
	}
	row := m.f64[u*m.points : (u+1)*m.points]
	for _, p := range idx {
		v := row[p]
		if v > v1 {
			b2, v2 = b1, v1
			b1, v1 = p, v
		} else if v > v2 {
			b2, v2 = p, v
		}
	}
	return
}

// RowMax scans row u over the listed columns and returns the argmax
// (first index wins ties) with sentinel (-1, -1.0) for an empty list.
func (m *Matrix) RowMax(u int, idx []int32) (int32, float64) {
	var bi int32 = -1
	bv := -1.0
	if m.f32 != nil {
		row := m.f32[u*m.points : (u+1)*m.points]
		for _, p := range idx {
			if v := float64(row[p]); v > bv {
				bi, bv = p, v
			}
		}
		return bi, bv
	}
	row := m.f64[u*m.points : (u+1)*m.points]
	for _, p := range idx {
		if v := row[p]; v > bv {
			bi, bv = p, v
		}
	}
	return bi, bv
}

// RowMaxExcl is RowMax skipping the single excluded column.
func (m *Matrix) RowMaxExcl(u int, idx []int32, excl int32) (int32, float64) {
	var bi int32 = -1
	bv := -1.0
	if m.f32 != nil {
		row := m.f32[u*m.points : (u+1)*m.points]
		for _, p := range idx {
			if p == excl {
				continue
			}
			if v := float64(row[p]); v > bv {
				bi, bv = p, v
			}
		}
		return bi, bv
	}
	row := m.f64[u*m.points : (u+1)*m.points]
	for _, p := range idx {
		if p == excl {
			continue
		}
		if v := row[p]; v > bv {
			bi, bv = p, v
		}
	}
	return bi, bv
}

// Transposed is the point-major copy of a Matrix: Col(p) is the
// contiguous utility column of point p across all users. Values are
// always materialized as float64 — for a float32 source the conversion
// float64(float32) is exact, so Col(p)[u] == Matrix.At(u, p) in either
// mode and solvers reading columns stay bit-identical to element-wise
// access.
type Transposed struct {
	users  int
	points int
	vals   []float64
}

// Transpose builds the point-major copy with a cache-blocked tile loop:
// both the source row segment and the destination column segment of a
// Block×Block tile stay resident while the tile is copied, instead of
// striding the full matrix once per row.
func (m *Matrix) Transpose() *Transposed {
	t := &Transposed{users: m.users, points: m.points, vals: make([]float64, m.users*m.points)}
	for u0 := 0; u0 < m.users; u0 += Block {
		uMax := u0 + Block
		if uMax > m.users {
			uMax = m.users
		}
		for p0 := 0; p0 < m.points; p0 += Block {
			pMax := p0 + Block
			if pMax > m.points {
				pMax = m.points
			}
			if m.f32 != nil {
				for u := u0; u < uMax; u++ {
					row := m.f32[u*m.points : (u+1)*m.points]
					for p := p0; p < pMax; p++ {
						t.vals[p*m.users+u] = float64(row[p])
					}
				}
			} else {
				for u := u0; u < uMax; u++ {
					row := m.f64[u*m.points : (u+1)*m.points]
					for p := p0; p < pMax; p++ {
						t.vals[p*m.users+u] = row[p]
					}
				}
			}
		}
	}
	return t
}

// Col returns the contiguous utility column of point p (length Users).
// The slice aliases the transpose's backing array; callers must not
// mutate it.
func (t *Transposed) Col(p int) []float64 {
	return t.vals[p*t.users : (p+1)*t.users]
}
