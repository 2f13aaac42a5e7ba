package utility

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/regretlab/fam/internal/rng"
)

func TestLinearValue(t *testing.T) {
	f := Linear{W: []float64{0.5, 2}}
	if got := f.Value(0, []float64{2, 1}); got != 3 {
		t.Fatalf("Linear = %v", got)
	}
}

func TestCESValue(t *testing.T) {
	// rho = 1 degenerates to linear.
	f := CES{W: []float64{0.5, 0.5}, Rho: 1}
	if got := f.Value(0, []float64{0.4, 0.8}); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("CES rho=1 = %v", got)
	}
	// rho = 0.5 rewards balance: balanced point beats lopsided one of the
	// same linear score.
	g := CES{W: []float64{0.5, 0.5}, Rho: 0.5}
	balanced := g.Value(0, []float64{0.5, 0.5})
	lopsided := g.Value(0, []float64{1, 0})
	if balanced <= lopsided {
		t.Fatalf("CES should favor balance: %v vs %v", balanced, lopsided)
	}
	// Negative attributes clamp to zero, zero score stays zero.
	if got := g.Value(0, []float64{-1, 0}); got != 0 {
		t.Fatalf("CES negative clamp = %v", got)
	}
}

func TestTableValue(t *testing.T) {
	f := Table{U: []float64{0.9, 0.1}}
	if f.Value(0, nil) != 0.9 || f.Value(1, nil) != 0.1 {
		t.Fatal("Table lookup failed")
	}
	if f.Value(-1, nil) != 0 || f.Value(5, nil) != 0 {
		t.Fatal("out-of-range index must score 0")
	}
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewUniformSimplexLinear(0); err == nil {
		t.Fatal("d=0 must error")
	}
	if _, err := NewUniformBoxLinear(-1); err == nil {
		t.Fatal("d<0 must error")
	}
	for _, tc := range []struct {
		rho float64
		ok  bool
	}{
		{0, false},
		{-0.5, false},
		{1.5, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{math.SmallestNonzeroFloat64, true},
		{0.5, true},
		{1, true},
	} {
		if _, err := NewCESUniform(2, tc.rho); (err == nil) != tc.ok {
			t.Fatalf("NewCESUniform(2, %v): err = %v, want ok=%v", tc.rho, err, tc.ok)
		}
	}
	if _, err := NewDiscrete(nil, nil, true); err == nil {
		t.Fatal("empty Discrete must error")
	}
	if _, err := NewDiscrete([]Func{Linear{W: []float64{1}}}, []float64{1, 2}, true); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := NewDiscrete([]Func{Linear{W: []float64{1}}}, []float64{-1}, true); err == nil {
		t.Fatal("negative probability must error")
	}
	if _, err := NewDiscrete([]Func{Linear{W: []float64{1}}}, []float64{0}, true); err == nil {
		t.Fatal("zero mass must error")
	}
	if _, err := NewLatentLinear(nil, 0); err == nil {
		t.Fatal("nil sampler must error")
	}
}

func TestDistributionMetadata(t *testing.T) {
	us, _ := NewUniformSimplexLinear(3)
	ub, _ := NewUniformBoxLinear(4)
	ces, _ := NewCESUniform(5, 0.5)
	for _, d := range []Distribution{us, ub, ces} {
		if !d.Monotone() {
			t.Fatalf("%s should be monotone", d.Name())
		}
		if d.Dim() <= 0 {
			t.Fatalf("%s dim = %d", d.Name(), d.Dim())
		}
		if d.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

// IsLinear is true exactly for the distributions whose samples are w·p
// with non-negative weights: one row per constructor.
func TestIsLinear(t *testing.T) {
	must := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		dist Distribution
		want bool
	}{
		{must(NewUniformSimplexLinear(3)), true},
		{must(NewUniformBoxLinear(2)), true},
		{must(NewCESUniform(3, 0.5)), false},
		{must(NewDiscrete([]Func{Linear{W: []float64{1, 0}}}, []float64{1}, true)), false},
		{must(NewLatentLinear(fixedSampler{w: []float64{1, 2}}, 0)), false},
	}
	for _, c := range cases {
		if got := IsLinear(c.dist); got != c.want {
			t.Errorf("IsLinear(%s) = %v, want %v", c.dist.Name(), got, c.want)
		}
	}
}

func TestSimplexSampling(t *testing.T) {
	g := rng.New(1)
	us, _ := NewUniformSimplexLinear(4)
	for i := 0; i < 50; i++ {
		f := us.Sample(g).(Linear)
		var sum float64
		for _, w := range f.W {
			if w < 0 {
				t.Fatal("negative simplex weight")
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("simplex weights sum = %v", sum)
		}
	}
}

func TestBoxSampling(t *testing.T) {
	g := rng.New(2)
	ub, _ := NewUniformBoxLinear(3)
	for i := 0; i < 50; i++ {
		f := ub.Sample(g).(Linear)
		for _, w := range f.W {
			if w < 0 || w >= 1 {
				t.Fatalf("box weight out of range: %v", w)
			}
		}
	}
}

func TestDiscreteSampling(t *testing.T) {
	fa := Table{U: []float64{1, 0}}
	fb := Table{U: []float64{0, 1}}
	d, err := NewDiscrete([]Func{fa, fb}, []float64{3, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Monotone() {
		t.Fatal("declared non-monotone")
	}
	if d.Dim() != 0 {
		t.Fatal("Table-based Discrete should report dim 0")
	}
	g := rng.New(3)
	counts := map[bool]int{}
	for i := 0; i < 40000; i++ {
		f := d.Sample(g).(Table)
		counts[f.U[0] == 1]++
	}
	p := float64(counts[true]) / 40000
	if math.Abs(p-0.75) > 0.01 {
		t.Fatalf("discrete p = %v, want 0.75", p)
	}
}

func TestDiscreteDimLinearAndCES(t *testing.T) {
	dl, _ := NewDiscrete([]Func{Linear{W: []float64{1, 2}}}, []float64{1}, true)
	if dl.Dim() != 2 {
		t.Fatalf("linear Discrete dim = %d", dl.Dim())
	}
	dc, _ := NewDiscrete([]Func{CES{W: []float64{1, 2, 3}, Rho: 0.5}}, []float64{1}, true)
	if dc.Dim() != 3 {
		t.Fatalf("CES Discrete dim = %d", dc.Dim())
	}
}

type fixedSampler struct {
	w []float64
}

func (f fixedSampler) SampleVector(*rng.RNG) []float64 { return f.w }
func (f fixedSampler) VectorDim() int                  { return len(f.w) }

func TestLatentLinear(t *testing.T) {
	ll, err := NewLatentLinear(fixedSampler{w: []float64{1, -2}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ll.Monotone() {
		t.Fatal("latent linear must be non-monotone")
	}
	if ll.Dim() != 2 {
		t.Fatalf("dim = %d", ll.Dim())
	}
	g := rng.New(4)
	f := ll.Sample(g)
	// 1*1 + (-2)*0.5 + 0.5 = 0.5
	if got := f.Value(0, []float64{1, 0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("offset linear = %v", got)
	}
	// Clamped at zero.
	if got := f.Value(0, []float64{0, 10}); got != 0 {
		t.Fatalf("negative utility must clamp to 0, got %v", got)
	}
	if _, err := NewLatentLinear(fixedSampler{w: nil}, 0); err == nil {
		t.Fatal("zero-dim sampler must error")
	}
}

// Property: all monotone families really are monotone — increasing one
// attribute never decreases the utility.
func TestMonotoneFamiliesProperty(t *testing.T) {
	g := rng.New(5)
	us, _ := NewUniformSimplexLinear(4)
	ces, _ := NewCESUniform(4, 0.7)
	dists := []Distribution{us, ces}
	f := func(pRaw [4]uint8, inc uint8, coordRaw uint8) bool {
		p := make([]float64, 4)
		for i, v := range pRaw {
			p[i] = float64(v) / 255
		}
		q := append([]float64(nil), p...)
		coord := int(coordRaw) % 4
		q[coord] += float64(inc%100) / 100
		for _, d := range dists {
			fn := d.Sample(g)
			if fn.Value(0, q) < fn.Value(0, p)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
