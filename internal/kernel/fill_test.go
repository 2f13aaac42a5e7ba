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
// Value call at the candidate's dataset index, bit for bit.
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
	got64 := make([]float64, m)
	got32 := make([]float32, m)
	kernel.Fill(ps, f, got64)
	kernel.Fill(ps, f, got32)
	for j := 0; j < m; j++ {
		idx := j
		if cand != nil {
			idx = cand[j]
		}
		want := f.Value(idx, pts[idx])
		if math.Float64bits(got64[j]) != math.Float64bits(want) {
			t.Fatalf("%s: float64 entry %d = %v (%#x), Value = %v (%#x)", label, j, got64[j], math.Float64bits(got64[j]), want, math.Float64bits(want))
		}
		if math.Float32bits(got32[j]) != math.Float32bits(float32(want)) {
			t.Fatalf("%s: float32 entry %d = %v, want %v", label, j, got32[j], float32(want))
		}
	}
}

func TestFillLinearBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for d := 1; d <= 8; d++ {
		for _, m := range []int{0, 1, 3, 4, 5, 1027} {
			pts := randPoints(r, m, d)
			for trial := 0; trial < 3; trial++ {
				f := utility.Linear{W: randVec(r, d)}
				checkFill(t, fmt.Sprintf("d=%d m=%d", d, m), pts, nil, f)
			}
		}
		pts := randPoints(r, 50, d)
		checkFill(t, fmt.Sprintf("d=%d cand", d), pts, oddCand(50), utility.Linear{W: randVec(r, d)})
	}
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

// BenchmarkFill fills one 691-user matrix over 2400 4-d candidates, the
// shape of a fresh-seed coreset-pruned instance at n=10⁵.
func BenchmarkFill(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	const N, m, d = 691, 2400, 4
	ps := kernel.NewPoints(randPoints(r, m, d), nil)
	funcs := make([]utility.Func, N)
	for u := range funcs {
		funcs[u] = utility.Linear{W: randVec(r, d)}
	}
	mat := kernel.New(N, m, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u, f := range funcs {
			mat.FillRow(u, f, ps)
		}
	}
}
