package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/utility"
)

// tieMode is one storage/weighting configuration of a tie-heavy
// instance.
type tieMode struct {
	name     string
	float32  bool
	uncached bool
	weighted bool
}

var tieModes = []tieMode{
	{name: "float64"},
	{name: "float32", float32: true},
	{name: "uncached", uncached: true},
	{name: "float32-uncached", float32: true, uncached: true},
	{name: "weighted", weighted: true},
}

// tieInput is the raw material of a tie-heavy instance: points and
// linear users drawn from a coarse grid, many of them exact copies, so
// that lots of candidates share a removal cost of exactly zero.
type tieInput struct {
	pts     [][]float64
	funcs   []utility.Func
	weights []float64
}

func (ti tieInput) instance(t testing.TB, m tieMode, workers int) *Instance {
	t.Helper()
	opts := Options{Float32: m.float32, Parallelism: workers}
	if m.uncached {
		opts.CacheBudget = -1
	}
	if m.weighted {
		opts.Weights = ti.weights
	}
	in, err := NewInstance(ti.pts, ti.funcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomTieInput draws n points and N users in d dimensions from the
// grid {0, ¼, ½, ¾, 1}, copying an earlier point or user half the time.
func randomTieInput(g *rng.RNG, n, N, d int) tieInput {
	grid := func() float64 { return float64(g.IntN(5)) / 4 }
	var ti tieInput
	for i := 0; i < n; i++ {
		if i > 0 && g.IntN(2) == 0 {
			ti.pts = append(ti.pts, ti.pts[g.IntN(i)])
			continue
		}
		p := make([]float64, d)
		for j := range p {
			p[j] = grid()
		}
		ti.pts = append(ti.pts, p)
	}
	for u := 0; u < N; u++ {
		ti.weights = append(ti.weights, float64(g.IntN(3)+1))
		if u > 0 && g.IntN(2) == 0 {
			ti.funcs = append(ti.funcs, ti.funcs[g.IntN(u)])
			continue
		}
		w := make([]float64, d)
		for j := range w {
			w[j] = grid()
		}
		ti.funcs = append(ti.funcs, utility.Linear{W: w})
	}
	return ti
}

// checkStrategiesAgree runs every strategy at Parallelism 1 and 4 under
// mode m and requires one selected set and one ARR bit pattern.
func checkStrategiesAgree(t *testing.T, ti tieInput, m tieMode, k int) {
	t.Helper()
	ctx := context.Background()
	var refSet []int
	var refARR float64
	var refLabel string
	for _, workers := range []int{1, 4} {
		in := ti.instance(t, m, workers)
		for _, s := range allStrategies() {
			set, _, err := GreedyShrink(ctx, in, k, s)
			if err != nil {
				t.Fatalf("%s %v workers=%d: %v", m.name, s, workers, err)
			}
			label := fmt.Sprintf("%s %v workers=%d k=%d", m.name, s, workers, k)
			arr := mustARR(t, in, set)
			if refSet == nil {
				refSet, refARR, refLabel = set, arr, label
				continue
			}
			sameSet(t, label+" vs "+refLabel, set, refSet)
			if math.Float64bits(arr) != math.Float64bits(refARR) {
				t.Fatalf("%s: ARR %v, %s has %v", label, arr, refLabel, refARR)
			}
		}
	}
}

// Delta (tournament-tree argmin), lazy (instance-seeded best points) and
// naive must break exact ties identically: duplicate points make many
// removal costs exactly zero and duplicate users double every
// contribution.
func TestStrategiesAgreeUnderTies(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		g := rng.New(seed + 900)
		n, N, d := g.IntN(30)+2, g.IntN(40)+1, g.IntN(3)+1
		ti := randomTieInput(g, n, N, d)
		for _, m := range tieModes {
			for _, k := range []int{1, (n + 1) / 2, n - 1} {
				if k < 1 {
					continue
				}
				checkStrategiesAgree(t, ti, m, k)
			}
		}
	}
}

// The work counters of delta and lazy on one fixed instance, pinned so a
// change to the solvers' bookkeeping cannot move them unnoticed.
func TestShrinkCountersPinned(t *testing.T) {
	in := workerInstance(t, 7, 60, 4, 300, 1)
	type counters struct {
		Iterations, Evaluations, EvalSkipped, UserRescans, CandidateTotal int
	}
	want := map[Strategy]counters{
		StrategyDelta: {Iterations: 52, Evaluations: 1794, EvalSkipped: 0, UserRescans: 78, CandidateTotal: 1794},
		StrategyLazy:  {Iterations: 52, Evaluations: 113, EvalSkipped: 1741, UserRescans: 314, CandidateTotal: 1794},
	}
	for s, w := range want {
		_, st, err := GreedyShrink(context.Background(), in, 8, s)
		if err != nil {
			t.Fatal(err)
		}
		got := counters{st.Iterations, st.Evaluations, st.EvalSkipped, st.UserRescans, st.CandidateTotal}
		if got != w {
			t.Errorf("%v: counters %+v, want %+v", s, got, w)
		}
	}
}

// fuzzTieInput decodes fuzz bytes into a tie-heavy instance of at most
// 24 points and 16 users, plus k and the storage flags. The header is
// n, N, k and a flags byte (bit 0 float32, bit 1 uncached, bit 2
// weighted, bits 3–4 pick d ∈ [1, 3]); each point or user then takes one
// selector byte — high bit set copies an earlier one — and d grid bytes.
// Missing bytes read as zero.
func fuzzTieInput(data []byte) (tieInput, tieMode, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, N := 1+int(next()%24), 1+int(next()%16)
	k := 1 + int(next())%n
	flags := next()
	m := tieMode{name: "fuzz", float32: flags&1 != 0, uncached: flags&2 != 0, weighted: flags&4 != 0}
	d := 1 + int(flags>>3)%3
	vec := func() []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = float64(next()%5) / 4
		}
		return v
	}
	var ti tieInput
	for i := 0; i < n; i++ {
		if sel := next(); i > 0 && sel&0x80 != 0 {
			ti.pts = append(ti.pts, ti.pts[int(sel&0x7f)%i])
		} else {
			ti.pts = append(ti.pts, vec())
		}
	}
	for u := 0; u < N; u++ {
		sel := next()
		ti.weights = append(ti.weights, float64(1+sel%3))
		if u > 0 && sel&0x80 != 0 {
			ti.funcs = append(ti.funcs, ti.funcs[int(sel&0x7f)%u])
		} else {
			ti.funcs = append(ti.funcs, utility.Linear{W: vec()})
		}
	}
	return ti, m, k
}

// FuzzShrinkStrategies requires delta ≡ lazy ≡ naive (same set, same
// ARR bits, at Parallelism 1 and 4) on every decodable tie-heavy
// instance, and that no strategy panics. Each strategy's recorded
// trajectory must also answer every k exactly as GreedyShrink does.
func FuzzShrinkStrategies(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 3, 1, 0, 0, 4, 4, 0x80, 0x80, 0, 2, 2, 0, 4, 4, 0x80})
	f.Add([]byte{23, 15, 7, 0x07, 0, 1, 2, 3, 0x81, 0x82, 0, 4, 0, 4})
	f.Add([]byte{12, 9, 3, 0x1a, 0, 4, 4, 4, 0x80, 0x80, 0x80, 0, 0, 0, 0, 0x80, 0x81, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ti, m, k := fuzzTieInput(data)
		checkStrategiesAgree(t, ti, m, k)
		checkTrajectoriesAgree(t, ti, m)
	})
}
