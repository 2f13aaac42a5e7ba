package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/regretlab/fam/internal/kernel"
	"github.com/regretlab/fam/internal/utility"
)

// matrixOf stores row as the last of two float64 rows of a matrix, so
// the row starts at an offset of its backing array.
func matrixOf(row []float64) *kernel.Matrix {
	m := kernel.New(2, len(row), false)
	ps := kernel.NewPoints(make([][]float64, len(row)), nil)
	m.FillRow(0, utility.Table{U: make([]float64, len(row))}, ps)
	m.FillRow(1, utility.Table{U: row}, ps)
	return m
}

func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// scanMaxExcl is RowMaxExcl's ordered scan of row over idx: strict >,
// so the first column wins ties, and the sentinel (-1, -1).
func scanMaxExcl(row []float64, idx []int32, excl int32) (int32, float64) {
	bi, bv := int32(-1), -1.0
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

// markRef is MarkAtLeast's per-entry >=.
func markRef(row []float64, t float64, bits []uint64) {
	for i, v := range row {
		if v >= t {
			bits[i>>6] |= 1 << (i & 63)
		}
	}
}

// sameMax requires the same index and the same value bits, so a −0
// returned for a +0 shows.
func sameMax(gi int32, gv float64, wi int32, wv float64) error {
	if gi != wi || math.Float64bits(gv) != math.Float64bits(wv) {
		return fmt.Errorf("(%d, %v [%#x]), want (%d, %v [%#x])", gi, gv, math.Float64bits(gv), wi, wv, math.Float64bits(wv))
	}
	return nil
}

// checkRowReduce compares the row reductions on row with their
// references. At each excl, RowMaxExcl over the identity list (the
// vector path when VectorFill reports true) must return scanMaxExcl's
// index and value bits. At each threshold MarkAtLeast must OR exactly
// the entries with v >= t into a bitset that already holds bits, and
// touch no word past the row.
func checkRowReduce(t *testing.T, label string, row []float64, excls []int32, threshs []float64) {
	t.Helper()
	idx := identity(len(row))
	m := matrixOf(row)
	for _, e := range excls {
		wi, wv := scanMaxExcl(row, idx, e)
		gi, gv := m.RowMaxExcl(1, idx, e)
		if err := sameMax(gi, gv, wi, wv); err != nil {
			t.Fatalf("%s excl=%d: RowMaxExcl = %v", label, e, err)
		}
	}

	words := (len(row) + 63) / 64
	r := rand.New(rand.NewSource(int64(len(row))))
	for _, th := range threshs {
		start := make([]uint64, words+1) // one poison word past the row
		for w := range start {
			start[w] = r.Uint64() & r.Uint64() // about a quarter of the bits already set
		}
		want := append([]uint64(nil), start...)
		markRef(row, th, want[:words])
		got := append([]uint64(nil), start...)
		kernel.MarkAtLeast(row, th, got[:words])
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("%s t=%v: MarkAtLeast marks word %d = %#x, want %#x", label, th, w, got[w], want[w])
			}
		}
	}
}

// rowCases returns the excluded columns and thresholds checked on row:
// the ends, every column holding the maximum, the columns around the
// four-, sixteen- and sixty-four-entry group edges, none (-1), and as
// thresholds 0, −0, ±Inf, the largest and smallest entries, a middle
// one and one ulp above the largest.
func rowCases(row []float64) ([]int32, []float64) {
	n := len(row)
	excls := []int32{-1}
	for _, e := range []int{0, n - 1, n / 2, 3, 4, 5, 15, 16, 17, 31, 32, 63, 64, 65, 127, 128} {
		if e >= 0 && e < n {
			excls = append(excls, int32(e))
		}
	}
	threshs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	if n == 0 {
		return excls, threshs
	}
	top, low := row[0], row[0]
	for _, v := range row {
		top, low = max(top, v), min(low, v)
	}
	for j, v := range row {
		if v == top {
			excls = append(excls, int32(j))
		}
	}
	return excls, append(threshs, top, low, row[n/2], math.Nextafter(top, math.Inf(1)))
}

// TestRowReduceVectorMatchesScalar runs the row reductions on lengths
// around each kernel's group (4 and 16 values, 64-entry words) and a
// long row, at unaligned starts, on uniform, tie-heavy and all-equal
// rows and rows with ±0, subnormals, MaxFloat64, ±Inf and negatives in
// every position, including the scalar tails.
func TestRowReduceVectorMatchesScalar(t *testing.T) {
	if !kernel.VectorFill() {
		t.Log("no AVX on this host: checking the scalar row reductions only, the vector half is skipped")
	}
	r := rand.New(rand.NewSource(30))
	lengths := []int{0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1027}
	negZero := math.Copysign(0, -1)
	draws := []struct {
		name string
		draw func() float64
	}{
		{"uniform", r.Float64},
		{"ties", func() float64 { return float64(r.Intn(4)) / 4 }}, // many equal maxima
		{"signed-zeros", func() float64 { return []float64{0, negZero}[r.Intn(2)] }},
		{"subnormal", func() float64 { return float64(r.Intn(3)) * 5e-324 }},
	}
	for _, n := range lengths {
		for off := 0; off < 4; off++ {
			for _, d := range draws {
				back := make([]float64, off+n)
				for j := range back {
					back[j] = d.draw()
				}
				row := back[off:]
				excls, threshs := rowCases(row)
				checkRowReduce(t, fmt.Sprintf("n=%d off=%d %s", n, off, d.name), row, excls, threshs)
			}
		}
		for _, c := range []float64{0, negZero, 0.5, 5e-324, math.MaxFloat64} {
			row := make([]float64, n)
			for j := range row {
				row[j] = c
			}
			excls, threshs := rowCases(row)
			checkRowReduce(t, fmt.Sprintf("n=%d all %v", n, c), row, excls, threshs)
		}
	}

	// Each special value at the ends, around the group edges and in the
	// scalar tails (the last n%16 and n%4 entries), over a uniform row
	// and over a row of zeros.
	special := []float64{
		0, negZero, 5e-324, 1e-310, math.MaxFloat64, math.Inf(1), math.Inf(-1),
		-0.25, -1, -2, // negatives, the sentinel and below it
	}
	for _, n := range []int{17, 65, 129, 1027} {
		for _, v := range special {
			for _, at := range []int{0, 1, 3, 4, 15, 16, n - 1, n - 2, n - 3, n / 2} {
				for _, uniform := range []bool{true, false} {
					row := make([]float64, n)
					for j := range row {
						if uniform {
							row[j] = r.Float64()
						}
					}
					row[at] = v
					excls, threshs := rowCases(row)
					checkRowReduce(t, fmt.Sprintf("n=%d %v@%d uniform=%t", n, v, at, uniform), row, excls, append(threshs, v))
				}
			}
		}
	}
}

// TestRowMaxExclSentinel pins the single-column row over the identity
// list: excluding its one column leaves nothing, which reads as the
// sentinel (-1, -1).
func TestRowMaxExclSentinel(t *testing.T) {
	m := matrixOf([]float64{0.75})
	if bi, bv := m.RowMaxExcl(1, []int32{0}, 0); bi != -1 || bv != -1 {
		t.Fatalf("RowMaxExcl on n=1 = (%d, %v), want (-1, -1)", bi, bv)
	}
	if bi, bv := m.RowMaxExcl(1, []int32{0}, -1); bi != 0 || bv != 0.75 {
		t.Fatalf("RowMaxExcl excluding nothing = (%d, %v), want (0, 0.75)", bi, bv)
	}
}

// rowPalette is the NaN-free palette FuzzRowReduce places in rows.
var rowPalette = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-310, 0.25, 0.5, 1, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), -0.5, -1, -2,
}

// FuzzRowReduce makes checkRowReduce's comparison on fuzzed rows:
// regular values come from seed, quantized to force ties when seed is
// even; each triple of specials puts rowPalette[c] at entry (a<<8|b).
// The excluded column and a threshold come from the row, plus every
// case rowCases lists.
func FuzzRowReduce(f *testing.F) {
	f.Add(uint16(17), int64(1), uint16(3), []byte{})
	f.Add(uint16(129), int64(2), uint16(64), []byte{0, 128, 1, 0, 3, 7})
	f.Add(uint16(1027), int64(4), uint16(1000), []byte{4, 1, 7, 0, 0, 2, 3, 255, 8})
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64, exclRaw uint16, specials []byte) {
		n := int(nRaw) % 2100
		r := rand.New(rand.NewSource(seed))
		row := make([]float64, n)
		for j := range row {
			row[j] = r.Float64()
			if seed&1 == 0 {
				row[j] = math.Floor(row[j]*8) / 8
			}
		}
		for k := 0; n > 0 && k+2 < len(specials); k += 3 {
			row[(int(specials[k])<<8|int(specials[k+1]))%n] = rowPalette[int(specials[k+2])%len(rowPalette)]
		}
		excls, threshs := rowCases(row)
		if n > 0 {
			excls = append(excls, int32(int(exclRaw)%n))
			threshs = append(threshs, row[int(exclRaw)%n])
		}
		checkRowReduce(t, fmt.Sprintf("n=%d seed=%d", n, seed), row, excls, threshs)
	})
}

var sinkRowReduce int

// BenchmarkRowReduce times one pass of each row reduction over every
// row of a users×points float64 matrix, at the survivor counts of an
// engine-fresh-seeds request (1 480 after the coreset) and of a
// one-shot skyline (1 928). maxexcl excludes each row's argmax over the
// identity list, as the first GREEDY-SHRINK pass does: scalar is the
// ordered indexed scan RowMaxExcl runs without AVX, vector RowMaxExcl
// itself. atleast marks the entries within 1% of each row's best, as
// the coreset filter does at ε = 0.01: scalar per entry, vector
// MarkAtLeast.
func BenchmarkRowReduce(b *testing.B) {
	const N = 691
	for _, n := range []int{1480, 1928} {
		r := rand.New(rand.NewSource(7))
		m := kernel.New(N, n, false)
		ps := kernel.NewPoints(make([][]float64, n), nil)
		rows := make([][]float64, N)
		best := make([]int32, N)
		idx := identity(n)
		for u := range rows {
			rows[u] = make([]float64, n)
			for j := range rows[u] {
				rows[u][j] = r.Float64()
			}
			m.FillRow(u, utility.Table{U: rows[u]}, ps)
			best[u], _ = m.RowMax(u, idx)
		}
		maxExcl := map[string]func(u int) int32{
			"scalar": func(u int) int32 { j, _ := scanMaxExcl(rows[u], idx, best[u]); return j },
			"vector": func(u int) int32 { j, _ := m.RowMaxExcl(u, idx, best[u]); return j },
		}
		bits := make([]uint64, (n+63)/64)
		marks := map[string]func([]float64, float64, []uint64){"scalar": markRef, "vector": kernel.MarkAtLeast}
		for _, name := range []string{"scalar", "vector"} {
			f, mark := maxExcl[name], marks[name]
			skip := func(b *testing.B) {
				if name == "vector" && !kernel.VectorFill() {
					b.Skip("no AVX on this host")
				}
			}
			b.Run(fmt.Sprintf("%dx%d/maxexcl/%s", N, n, name), func(b *testing.B) {
				skip(b)
				for i := 0; i < b.N; i++ {
					for u := range rows {
						sinkRowReduce += int(f(u))
					}
				}
			})
			b.Run(fmt.Sprintf("%dx%d/atleast/%s", N, n, name), func(b *testing.B) {
				skip(b)
				for i := 0; i < b.N; i++ {
					for u, row := range rows {
						mark(row, 0.99*row[best[u]], bits)
					}
				}
			})
		}
	}
}
