package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/regretlab/fam/internal/kernel"
)

// store4Case is one input of the float64 last chunk: the partial sums,
// the four columns and their weights.
type store4Case struct {
	acc []float64
	x   [4][]float64
	w   [4]float64
}

// store4Func is the signature of both float64 last chunks.
type store4Func func(dst, acc, x0, x1, x2, x3 []float64, w0, w1, w2, w3 float64) (uint64, int)

// refStore4 is the last chunk written out entry by entry: the values it
// stores, their largest key (−0 ranking as +0) and the first index
// holding it.
func refStore4(c store4Case) (vals []float64, best uint64, arg int) {
	vals = make([]float64, len(c.acc))
	for j, s := range c.acc {
		s += c.w[0] * c.x[0][j]
		s += c.w[1] * c.x[1][j]
		s += c.w[2] * c.x[2][j]
		s += c.w[3] * c.x[3][j]
		vals[j] = s
		if k := math.Float64bits(s); k > best && k != 1<<63 {
			best, arg = k, j
		}
	}
	return vals, best, arg
}

// runStore4 runs one last chunk on c into a destination at offset off of
// a poisoned array, so a store that lands elsewhere or not at all shows.
func runStore4(store store4Func, c store4Case, off int) ([]float64, uint64, int) {
	back := make([]float64, off+len(c.acc)+3)
	for j := range back {
		back[j] = math.Float64frombits(0x7ff4_dead_beef_0001) // a signalling NaN nothing computes
	}
	dst := back[off : off+len(c.acc)]
	k, a := store(dst, c.acc, c.x[0], c.x[1], c.x[2], c.x[3], c.w[0], c.w[1], c.w[2], c.w[3])
	for j, v := range back {
		if (j < off || j >= off+len(c.acc)) && math.Float64bits(v) != 0x7ff4_dead_beef_0001 {
			panic(fmt.Sprintf("store outside dst at %d", j-off))
		}
	}
	return dst, k, a
}

// checkStore4 requires the scalar store4 to match refStore4, and, when
// vector is set, store4Vector to match store4, by sameStore.
func checkStore4(t *testing.T, label string, c store4Case, off int, vector bool) {
	t.Helper()
	want, wk, wa := refStore4(c)
	got, gk, ga := runStore4(kernel.Store4, c, off)
	if err := sameStore(got, gk, ga, want, wk, wa); err != nil {
		t.Fatalf("%s: scalar store4 vs entry-by-entry sum: %v", label, err)
	}
	if !vector {
		return
	}
	vec, vk, va := runStore4(kernel.Store4Vector, c, off)
	if err := sameStore(vec, vk, va, got, gk, ga); err != nil {
		t.Fatalf("%s: vector vs scalar store4: %v", label, err)
	}
}

// sameStore requires identical stored bits and an identical (key, arg),
// with one allowance: a NaN matches any NaN. Which operand's payload an
// addition or multiply keeps depends on the operand order the compiler
// picks for the scalar loop, and nothing reads a payload; a block with
// a NaN therefore only needs a key at or above +Inf's on both sides,
// which is all linearRow reads of it.
func sameStore(got []float64, gk uint64, ga int, want []float64, wk uint64, wa int) error {
	nan := false
	for j := range want {
		if math.IsNaN(got[j]) && math.IsNaN(want[j]) {
			nan = true
			continue
		}
		if g, w := math.Float64bits(got[j]), math.Float64bits(want[j]); g != w {
			return fmt.Errorf("entry %d = %v (%#x), want %v (%#x)", j, got[j], g, want[j], w)
		}
	}
	if inf := math.Float64bits(math.Inf(1)); nan && gk >= inf && wk >= inf {
		return nil
	}
	if gk != wk || ga != wa {
		return fmt.Errorf("(key, arg) = (%#x, %d), want (%#x, %d)", gk, ga, wk, wa)
	}
	return nil
}

// store4Inputs builds a case of m points at offset off of their backing
// arrays, with attributes drawn by draw. A nonzero acc holds the partial
// sums of the first four columns of a d=8 row; a zero one is a d=4 row.
func store4Inputs(r *rand.Rand, m, off int, partial bool, draw func() float64) store4Case {
	col := func() []float64 {
		back := make([]float64, off+m)
		for j := range back {
			back[j] = draw()
		}
		return back[off:]
	}
	var c store4Case
	c.acc = make([]float64, off+m)[off:]
	if partial {
		var w [4]float64
		var x [4][]float64
		for i := range w {
			w[i], x[i] = r.Float64()+1e-3, col()
		}
		for j := range c.acc {
			s := 0.0
			for i := range w {
				s += w[i] * x[i][j]
			}
			c.acc[j] = s
		}
	}
	for i := range c.w {
		c.w[i], c.x[i] = r.Float64()+1e-3, col()
	}
	return c
}

// TestStore4VectorMatchesScalar runs the vector last chunk and the
// scalar store4 on the same inputs — lengths around the four-point group
// and the block, unaligned starts, d=4 and d=8 rows, tie-heavy rows and
// every special value in each lane and in the scalar tail — and requires
// the same stored bits and the same (key, arg), NaN payloads aside.
func TestStore4VectorMatchesScalar(t *testing.T) {
	vector := kernel.VectorFill()
	if !vector {
		t.Log("no AVX on this host: checking the scalar store4 only, the vector half is skipped")
	}
	r := rand.New(rand.NewSource(6))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 1027}
	uniform := func() float64 { return r.Float64() }
	ties := func() float64 { return float64(r.Intn(4)) / 4 } // many equal maxima
	for _, m := range lengths {
		for off := 0; off < 4; off++ {
			for _, partial := range []bool{false, true} {
				label := fmt.Sprintf("m=%d off=%d partial=%t", m, off, partial)
				checkStore4(t, label+" uniform", store4Inputs(r, m, off, partial, uniform), off, vector)
				checkStore4(t, label+" ties", store4Inputs(r, m, off, partial, ties), off, vector)
			}
		}
	}

	negZero := math.Copysign(0, -1)
	zero := func() float64 { return 0 }
	allNegZero := store4Inputs(r, 11, 1, false, func() float64 { return negZero })
	for j := range allNegZero.acc {
		allNegZero.acc[j] = negZero // −0 + w·(−0) stays −0
	}
	checkStore4(t, "all -0", allNegZero, 1, vector)
	checkStore4(t, "all +0", store4Inputs(r, 11, 1, false, zero), 1, vector)

	// Each special value goes into the partial sum or one column, at
	// every lane of the first and a middle group and in the tail.
	special := map[string]float64{
		"+0": 0, "-0": negZero, "subnormal": 5e-324, "-subnormal": -5e-324, "subnormal2": 1e-310,
		"max": math.MaxFloat64, "+inf": math.Inf(1), "-inf": math.Inf(-1),
		"nan": math.NaN(), "negative": -0.25, "huge-negative": -1e300,
	}
	for _, m := range []int{4, 7, 11, 259} {
		positions := []int{0, 1, 2, 3, m - 1, m - 2, m / 2}
		for name, v := range special {
			for _, at := range positions {
				for slot := -1; slot < 4; slot++ { // -1 is acc
					for _, partial := range []bool{false, true} {
						c := store4Inputs(r, m, 2, partial, uniform)
						if slot < 0 {
							c.acc[at] = v
						} else {
							c.x[slot][at] = v
						}
						checkStore4(t, fmt.Sprintf("m=%d %s@%d slot=%d partial=%t", m, name, at, slot, partial), c, 2, vector)
					}
				}
			}
		}
		// A sum of finite terms that overflows to +Inf, and a second
		// invalid entry after the first.
		for _, at := range positions {
			c := store4Inputs(r, m, 3, false, uniform)
			c.acc[at], c.x[0][at] = math.MaxFloat64, math.MaxFloat64
			checkStore4(t, fmt.Sprintf("m=%d overflow@%d", m, at), c, 3, vector)
			c.x[1][m-1] = math.NaN()
			checkStore4(t, fmt.Sprintf("m=%d overflow@%d nan@%d", m, at, m-1), c, 3, vector)
		}
	}
}
