package kernel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/coreset"
	"github.com/regretlab/fam/internal/kernel"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/utility"
)

func randPoints(r *rand.Rand, m, d int) [][]float64 {
	pts := make([][]float64, m)
	for j := range pts {
		pts[j] = make([]float64, d)
		for i := range pts[j] {
			pts[j][i] = r.Float64()
		}
	}
	return pts
}

func randVec(r *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		// Mixed scales and signs make rounding order visible: any
		// reassociation of the sum over d would flip low bits.
		w[i] = (r.Float64() - 0.3) * math.Pow(10, float64(r.Intn(7)-3))
	}
	return w
}

// oddCand returns every third dataset index, so a candidate's position
// and its dataset index differ.
func oddCand(n int) []int {
	var c []int
	for i := 1; i < n; i += 3 {
		c = append(c, i)
	}
	return c
}

// checkFill compares Fill in both storage modes against the per-entry
// Value call at the candidate's dataset index, bit for bit, and its
// check against the ordered Scan of those values.
func checkFill(t *testing.T, label string, pts [][]float64, cand []int, f utility.Func) {
	t.Helper()
	ps := kernel.NewPoints(pts, cand)
	m := len(pts)
	if cand != nil {
		m = len(cand)
	}
	if ps.Len() != m {
		t.Fatalf("%s: Len %d, want %d", label, ps.Len(), m)
	}
	want := make([]float64, m)
	for j := range want {
		idx := j
		if cand != nil {
			idx = cand[j]
		}
		want[j] = f.Value(idx, pts[idx])
	}
	if err := compareFill(ps, f, want, make([]float64, m)); err != nil {
		t.Fatalf("%s: float64 %v", label, err)
	}
	if err := compareFill(ps, f, want, make([]float32, m)); err != nil {
		t.Fatalf("%s: float32 %v", label, err)
	}
}

// compareFill fills dst and checks each stored value against T(want[j])
// bit for bit, and Fill's (bad, argmax) against Scan of those values.
// Two NaNs compare equal whatever their payloads: which operand's
// payload an addition keeps is up to the hardware, and no caller looks
// past IsNaN.
func compareFill[T float32 | float64](ps *kernel.Points, f utility.Func, want []float64, dst []T) error {
	bad, am := kernel.Fill(ps, f, dst)
	ref := make([]T, len(want))
	for j, v := range want {
		ref[j] = T(v)
		g, w := float64(dst[j]), float64(ref[j])
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("entry %d = %v (%#x), Value = %v (%#x)", j, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if wantBad, wantAm := kernel.Scan(ref); bad != wantBad || am != wantAm {
		return fmt.Errorf("check = (%d, %d), Scan = (%d, %d)", bad, am, wantBad, wantAm)
	}
	return nil
}

func TestFillLinearBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for d := 1; d <= 9; d++ {
		for _, m := range []int{0, 1, 3, 4, 5, 255, 256, 257, 1027} {
			pts := randPoints(r, m, d)
			for trial := 0; trial < 3; trial++ {
				// Mixed-sign weights leave some rows invalid (the Scan
				// fallback), positive ones keep them valid (the fused
				// check).
				f := utility.Linear{W: randVec(r, d)}
				checkFill(t, fmt.Sprintf("d=%d m=%d", d, m), pts, nil, f)
				checkFill(t, fmt.Sprintf("d=%d m=%d positive", d, m), pts, nil, utility.Linear{W: randPositive(r, d)})
			}
		}
		pts := randPoints(r, 50, d)
		checkFill(t, fmt.Sprintf("d=%d cand", d), pts, oddCand(50), utility.Linear{W: randVec(r, d)})
	}
}

// TestFillCheckMatchesScan places chosen values in Linear rows — every
// weight 1 and every attribute but the first 0, so entry j is exactly
// the first attribute of point j (−0 aside, which the sum turns into
// +0) — and checks Fill's fused check against the ordered Scan. d = 1,
// 4, 5 and 9 give one-chunk rows and rows with full and partial last
// chunks; m = 300 puts the last entry in a second block.
func TestFillCheckMatchesScan(t *testing.T) {
	inf := math.Inf(1)
	special := map[string]float64{
		"nan":          math.NaN(),
		"+inf":         inf,
		"-inf":         -inf,
		"negative":     -0.25,
		"f32-overflow": 1e39,   // finite in float64, +Inf in float32
		"f32-negzero":  -1e-50, // negative in float64, −0 in float32
		"subnormal":    5e-324, // the smallest positive value: valid
		"max":          math.MaxFloat64,
	}
	for _, d := range []int{1, 4, 5, 9} {
		for _, m := range []int{1, 7, 300} {
			rowOf := func(first []float64) [][]float64 {
				pts := make([][]float64, m)
				for j := range pts {
					pts[j] = make([]float64, d)
					pts[j][0] = first[j]
				}
				return pts
			}
			w := make([]float64, d)
			for i := range w {
				w[i] = 1
			}
			f := utility.Linear{W: w}
			check := func(label string, first []float64) {
				t.Helper()
				checkFill(t, fmt.Sprintf("d=%d m=%d %s", d, m, label), rowOf(first), nil, f)
			}
			filled := func(v float64) []float64 {
				row := make([]float64, m)
				for j := range row {
					row[j] = v
				}
				return row
			}
			// Ties: all-equal rows, ±0 rows, and a maximum that repeats
			// in both blocks.
			check("all-zero", filled(0))
			check("all-negzero", filled(math.Copysign(0, -1)))
			check("all-equal", filled(0.5))
			tie := filled(0.25)
			tie[m/2], tie[m-1] = 0.75, 0.75
			check("tied-max", tie)
			mixed := filled(0)
			for j := 0; j < m; j += 2 {
				mixed[j] = math.Copysign(0, -1)
			}
			check("signed-zeros", mixed)
			for name, v := range special {
				for _, at := range []int{0, m / 2, m - 1} {
					row := make([]float64, m)
					for j := range row {
						row[j] = float64(j%17) / 16
					}
					row[at] = v
					if at+1 < m {
						row[at+1] = math.NaN() // only the first bad entry is reported
					}
					check(fmt.Sprintf("%s@%d", name, at), row)
				}
			}
		}
	}
}

// fuzzPalette holds the values FuzzFill places at chosen weights and
// attributes: signed zeros, subnormals, values at and past float32's
// range, and the invalid ones.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1e-45, -1e-50,
	1, 0.5, 3.4028234663852886e38, 1e39, -1e39, 1e200, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// FuzzFill checks the Linear fill and its fused check against Value
// followed by the ordered Scan, in both storage modes, on d ≤ 9 columns
// and rows that span blocks. Regular values come from seed; each triple
// of specials puts fuzzPalette[c] at weight or attribute (a<<8|b).
func FuzzFill(f *testing.F) {
	f.Add(uint8(3), uint16(7), int64(1), []byte{})
	f.Add(uint8(8), uint16(300), int64(2), []byte{0, 9, 1, 1, 44, 16, 3, 2, 14})
	f.Add(uint8(4), uint16(257), int64(3), []byte{0, 0, 10, 0, 4, 6, 4, 0, 1})
	f.Fuzz(func(t *testing.T, dRaw uint8, mRaw uint16, seed int64, specials []byte) {
		d, m := 1+int(dRaw)%9, int(mRaw)%600
		r := rand.New(rand.NewSource(seed))
		// Odd seeds draw positive weights, whose rows stay valid unless
		// a special breaks them: the fused check decides those rows.
		w := randVec(r, d)
		if seed&1 != 0 {
			w = randPositive(r, d)
		}
		pts := randPoints(r, m, d)
		for k := 0; k+2 < len(specials); k += 3 {
			v := fuzzPalette[int(specials[k+2])%len(fuzzPalette)]
			at := (int(specials[k])<<8 | int(specials[k+1])) % (d + m*d)
			if at < d {
				w[at] = v
			} else {
				pts[(at-d)/d][(at-d)%d] = v
			}
		}
		checkFill(t, fmt.Sprintf("d=%d m=%d", d, m), pts, nil, utility.Linear{W: w})
	})
}

// stubSampler feeds LatentLinear fixed-distribution weight vectors.
type stubSampler struct{ d int }

func (s stubSampler) SampleVector(g *rng.RNG) []float64 {
	w := make([]float64, s.d)
	for i := range w {
		w[i] = 2*g.Float64() - 1
	}
	return w
}

func (s stubSampler) VectorDim() int { return s.d }

// indexed is a caller-supplied Func that mixes the index it is given into
// the value, so a wrong index convention changes the result.
type indexed struct{}

func (indexed) Value(idx int, p []float64) float64 { return float64(idx) + p[0]/3 }

func TestFillFallbackBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const d, n = 3, 41
	pts := randPoints(r, n, d)
	latent, err := utility.NewLatentLinear(stubSampler{d}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	table := make([]float64, n)
	for i := range table {
		table[i] = r.Float64()
	}
	funcs := map[string]utility.Func{
		"ces":          utility.CES{W: randVec(r, d), Rho: 0.5},
		"table":        utility.Table{U: table},
		"offsetLinear": latent.Sample(rng.New(3)),
		"custom":       indexed{},
		"linear-short": utility.Linear{W: randVec(r, d-1)}, // len(W) != d: Value path
		"linear-ptr":   &utility.Linear{W: randVec(r, d)},
	}
	for name, f := range funcs {
		checkFill(t, name, pts, nil, f)
		checkFill(t, name+"/cand", pts, oddCand(n), f)
	}
	// Ragged rows cannot be copied contiguously; Linear falls back too.
	ragged := [][]float64{{0.1, 0.2}, {0.3, 0.4, 0.5}, {0.6, 0.7}}
	checkFill(t, "ragged", ragged, nil, utility.Linear{W: []float64{0.25, 0.75}})
}

func TestScan(t *testing.T) {
	row := []float64{0.5, 0.9, 0.2, 0.9, 0}
	if bad, am := kernel.Scan(row); bad != -1 || am != 1 {
		t.Fatalf("Scan = (%d, %d), want (-1, 1): first maximum wins", bad, am)
	}
	if bad, am := kernel.Scan([]float64{}); bad != -1 || am != -1 {
		t.Fatalf("empty Scan = (%d, %d)", bad, am)
	}
	if bad, am := kernel.Scan([]float64{0, 0}); bad != -1 || am != 0 {
		t.Fatalf("all-zero Scan = (%d, %d), want (-1, 0)", bad, am)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-300} {
		r := append([]float64(nil), row...)
		r[3] = v
		r[4] = math.NaN() // only the first bad entry is reported
		if bad, _ := kernel.Scan(r); bad != 3 {
			t.Fatalf("Scan with %v at 3 reported %d", v, bad)
		}
	}
	if bad, _ := kernel.Scan([]float32{1, float32(math.Inf(1))}); bad != 1 {
		t.Fatalf("float32 Scan missed +Inf: %d", bad)
	}
}

// poison is Linear except at index at (every index when at < 0), where
// it returns v.
type poison struct {
	utility.Linear
	at int
	v  float64
}

func (p poison) Value(idx int, x []float64) float64 {
	if p.at < 0 || idx == p.at {
		return p.v
	}
	return p.Linear.Value(idx, x)
}

// TestInvalidUtilityErrors pins the error each preprocessing caller
// reports for an invalid utility at a chosen (user, point): the first
// bad entry in (user, point) order, at any parallelism, with the
// caller's own index convention (coreset: dataset index; instance:
// local index) and, in float32 mode, the rounded value.
func TestInvalidUtilityErrors(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, d, N = 30, 2, 12
	pts := randPoints(r, n, d)
	cand := oddCand(n) // candidate 4 is dataset point 13
	local := make([][]float64, len(cand))
	for j, c := range cand {
		local[j] = pts[c]
	}
	ws := make([]utility.Linear, N)
	for u := range ws {
		ws[u] = utility.Linear{W: []float64{r.Float64(), r.Float64()}}
	}
	const msg = "%s: utility function 7 returned %s for point %d (must be a non-negative finite value)"
	cases := []struct {
		name string
		v    float64        // poison value at candidate 4 of user 7, or
		lin  utility.Linear // user 7's weights, bad at every point
		f32  bool
		want string // the reported value as %v prints it
	}{
		{name: "nan", v: math.NaN(), want: "NaN"},
		{name: "+inf", v: math.Inf(1), want: "+Inf"},
		{name: "-inf", v: math.Inf(-1), want: "-Inf"},
		{name: "negative", v: -0.25, want: "-0.25"},
		// Finite in float64, +Inf once rounded to float32: the instance
		// must reject the value its solvers would see.
		{name: "f32-overflow", v: 1e39, f32: true, want: "+Inf"},
		// The Linear fast path surfaces the same errors, at the first
		// candidate.
		{name: "linear-nan", lin: utility.Linear{W: []float64{math.Inf(1), math.Inf(-1)}}, want: "NaN"},
		{name: "linear-inf", lin: utility.Linear{W: []float64{math.Inf(1), 0}}, want: "+Inf"},
		{name: "linear-negative", lin: utility.Linear{W: []float64{0, -2}}, want: fmt.Sprint(-2 * pts[cand[0]][1])},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// funcs poisons user 7 at index at; user 9 is bad at every
			// point, but the earlier user wins.
			funcs := func(at int) []utility.Func {
				fs := make([]utility.Func, N)
				for u, w := range ws {
					fs[u] = w
				}
				fs[9] = poison{Linear: ws[9], at: -1, v: -1}
				if tc.lin.W != nil {
					fs[7] = tc.lin
				} else {
					fs[7] = poison{Linear: ws[7], at: at, v: tc.v}
				}
				return fs
			}
			wantCS := fmt.Sprintf(msg, "coreset", tc.want, 13)
			wantCore := fmt.Sprintf(msg, "core", tc.want, 4)
			if tc.lin.W != nil {
				wantCS = fmt.Sprintf(msg, "coreset", tc.want, cand[0])
				wantCore = fmt.Sprintf(msg, "core", tc.want, 0)
			}
			for _, par := range []int{1, 3} {
				if !tc.f32 {
					_, err := coreset.Filter(context.Background(), pts, cand, funcs(13), coreset.Options{Eps: 0.1, Parallelism: par})
					if err == nil || err.Error() != wantCS {
						t.Fatalf("coreset par=%d: got %v, want %q", par, err, wantCS)
					}
				}
				for _, budget := range []int64{0, -1} { // materialized and recompute paths
					_, err := core.NewInstance(local, funcs(4), core.Options{Parallelism: par, Float32: tc.f32, CacheBudget: budget})
					if err == nil || err.Error() != wantCore {
						t.Fatalf("instance par=%d budget=%d: got %v, want %q", par, budget, err, wantCore)
					}
				}
			}
		})
	}
}

// BenchmarkFill fills and checks one row per user: N=691 users over
// m=2405 candidates, the shape of an engine-fresh-seeds coreset pass
// over the skyline of 10⁵ anticorrelated points, at several d in both
// storage modes.
func BenchmarkFill(b *testing.B) {
	const N, m = 691, 2405
	for _, d := range []int{1, 2, 3, 4, 6, 8} {
		r := rand.New(rand.NewSource(5))
		ps := kernel.NewPoints(randPoints(r, m, d), nil)
		funcs := make([]utility.Func, N)
		for u := range funcs {
			funcs[u] = utility.Linear{W: randPositive(r, d)}
		}
		b.Run(fmt.Sprintf("d=%d/float64", d), func(b *testing.B) { benchFill(b, ps, funcs, make([]float64, m)) })
		b.Run(fmt.Sprintf("d=%d/float32", d), func(b *testing.B) { benchFill(b, ps, funcs, make([]float32, m)) })
	}
}

// randPositive draws positive weights, so every filled row is valid and
// the benchmark times the fused check, not the Scan fallback.
func randPositive(r *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = r.Float64() + 1e-3
	}
	return w
}

var sinkArgmax int

func benchFill[T float32 | float64](b *testing.B, ps *kernel.Points, funcs []utility.Func, row []T) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			bad, am := kernel.Fill(ps, f, row)
			if bad >= 0 {
				b.Fatalf("invalid entry %d", bad)
			}
			sinkArgmax += am
		}
	}
}
