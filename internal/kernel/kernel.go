// Package kernel provides the dense utility-matrix storage, the fill
// that computes every preprocessing utility (Points and Fill, in
// fill.go: column-major candidates, and a check of each row for invalid
// values and its best point made as the row is stored; on amd64 CPUs
// with AVX the float64 last chunk of four columns runs four points per
// instruction, in store4_amd64.s, storing the scalar loop's bits), the
// scan primitives shared by every solver's inner loop, and the coreset
// filter's at-least-t marks (MarkAtLeast, rowreduce.go). On the same
// CPUs the marks, and RowMaxExcl over a list of every column, read the
// whole contiguous row in the vector unit, in rowreduce_amd64.s, with
// the scalar scans' results. A Matrix is the N×n utility table in
// user-major layout — each user's row is one contiguous block, so the
// per-candidate scans of GREEDY-SHRINK walk memory linearly — with an
// opt-in float32 storage mode that halves the resident bytes at the
// cost of ~7 decimal digits. A Transposed view is
// the point-major copy used by insertion-style solvers (GreedyAdd),
// whose hot loop reads one point's utility across all users: the
// transpose turns that strided column access into a contiguous pass.
//
// Determinism contract: every scan visits the supplied index list in
// order with strict comparisons (`v > best`), so the lowest index wins
// ties exactly like the historical per-element loops they replace. The
// vector whole-row reductions may visit a row in any order but return
// what the ordered scan over every column returns. In float32 mode values are
// converted with float64(float32(v)) at both store and load, so At, Row
// scans and Transposed columns all observe the identical rounded value
// — results are bit-deterministic within a storage mode; only across
// modes do they differ.
//
// Slab reuse contract: Release hands a matrix's backing array of at
// most spareMaxBytes (16 MiB) back to the Slot its New took from, which
// keeps at most one released array per storage mode (a later Release
// replaces the held one; a larger array is left to the garbage
// collector). New empties the slot of its mode and takes the held array
// only when it fits; otherwise it drops it and allocates. The package's
// own slot, which New uses, fits only an array of exactly users×points;
// a slot from NewSlot, which an Engine owns, fits any capacity from
// users×points to users×points·17/16, since sizes that vary by a few
// percent would almost never match exactly. A matrix keeps the whole
// array it took, and FootprintBytes counts its capacity, so a byte
// budget that sums footprints stays exact. A reused array is not
// zeroed: New hands out whatever the released matrix held, so every
// caller must store each entry (FillRow does) before any entry is read.
// After Release the matrix must not be used, and no goroutine may still
// read it.
package kernel

import "sync"

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
	slot   *Slot // where Release hands the backing array
}

// spareMaxBytes bounds the backing array a Slot keeps: at most one per
// storage mode, so a slot holds at most 2·spareMaxBytes of released
// arrays. 16 MiB covers a 691-user matrix over ~3 000 points in
// float64.
const spareMaxBytes = 16 << 20

// Slot holds the last released backing array of each storage mode. It
// is a single strong slot rather than a sync.Pool: a pooled array parked
// in one P's private cache cannot serve a New on another P, so two
// arrays of the largest matrix would stay live.
type Slot struct {
	mu    sync.Mutex
	loose bool // take fits a capacity up to 1/16 over the request
	f64   []float64
	f32   []float32
}

// spare is the package's exact-length slot, the one New takes from.
var spare Slot

// NewSlot returns an empty slot whose New reuses a held array of
// capacity users×points up to users×points·17/16.
func NewSlot() *Slot { return &Slot{loose: true} }

// New returns a users×points matrix. float32Mode selects the halved
// storage representation. Its entries are unspecified (see the package
// doc): the caller fills every row before reading any.
func New(users, points int, float32Mode bool) *Matrix {
	return spare.New(users, points, float32Mode)
}

// New is the package New taking from s, and its matrix's Release hands
// the array back to s. A nil s is the package's slot.
func (s *Slot) New(users, points int, float32Mode bool) *Matrix {
	if s == nil {
		s = &spare
	}
	m := &Matrix{users: users, points: points, slot: s}
	if float32Mode {
		m.f32 = take(s, &s.f32, users*points)
	} else {
		m.f64 = take(s, &s.f64, users*points)
	}
	return m
}

// take empties s's array of one storage mode, *held, and returns it,
// cut to size, when its capacity fits size. Otherwise it allocates, and
// the emptied slot leaves the held array to the garbage collector
// before the new one is made.
func take[T float32 | float64](s *Slot, held *[]T, size int) []T {
	s.mu.Lock()
	a := *held
	*held = nil
	s.mu.Unlock()
	fits := cap(a) == size
	if s.loose {
		fits = cap(a) >= size && cap(a)*16 <= size*17
	}
	if a == nil || !fits {
		return make([]T, size)
	}
	return a[:size]
}

// Release hands m's backing array to the next New of its slot,
// replacing any array released before, when it holds at most
// spareMaxBytes. Only m's sole owner may call it, once no goroutine
// reads m any longer; m must not be used afterwards (reading an entry
// panics).
func (m *Matrix) Release() {
	f32, f64, s := m.f32, m.f64, m.slot
	m.f32, m.f64 = nil, nil
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case cap(f32) > 0 && cap(f32)*4 <= spareMaxBytes:
		s.f32 = f32
	case cap(f64) > 0 && cap(f64)*8 <= spareMaxBytes:
		s.f64 = f64
	}
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

// FootprintBytes returns the exact resident bytes of the backing array,
// its whole capacity, plus its slice header.
func (m *Matrix) FootprintBytes() int64 {
	const sliceHeader = 24
	if m.f32 != nil {
		return sliceHeader + int64(cap(m.f32))*4
	}
	return sliceHeader + int64(cap(m.f64))*8
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

// RowMaxExcl is RowMax skipping the single excluded column. idx must
// be ascending and distinct, so one of Points() entries lists every
// column: a float64 row then runs maxExclVector over the whole
// contiguous row when useVector is set, with the ordered scan's result.
func (m *Matrix) RowMaxExcl(u int, idx []int32, excl int32) (int32, float64) {
	if useVector && m.f64 != nil && len(idx) == m.points {
		return maxExclVector(m.f64[u*m.points:(u+1)*m.points], excl)
	}
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

// SetMax returns the largest entry of row u at the listed columns, or
// 0 when none is positive: user u's satisfaction from a selection set.
// Entries load as At loads them.
func (m *Matrix) SetMax(u int, idx []int) float64 {
	if m.f32 != nil {
		return setMax(m.f32[u*m.points:(u+1)*m.points], idx)
	}
	return setMax(m.f64[u*m.points:(u+1)*m.points], idx)
}

func setMax[T float32 | float64](row []T, idx []int) float64 {
	var best float64
	for _, p := range idx {
		if v := float64(row[p]); v > best {
			best = v
		}
	}
	return best
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
