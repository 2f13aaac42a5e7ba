package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// mulTransposed returns l·lᵀ, the matrix a Cholesky factor l reconstructs.
func mulTransposed(l *Matrix) *Matrix {
	out := NewMatrix(l.Rows, l.Rows)
	for i := 0; i < l.Rows; i++ {
		for j := 0; j < l.Rows; j++ {
			var s float64
			for k := 0; k < l.Cols; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestScaleAddScaledSub(t *testing.T) {
	a := []float64{1, 2}
	Scale(a, 3)
	if a[0] != 3 || a[1] != 6 {
		t.Fatalf("Scale = %v", a)
	}
	AddScaled(a, 2, []float64{1, 1})
	if a[0] != 5 || a[1] != 8 {
		t.Fatalf("AddScaled = %v", a)
	}
	d := Sub(a, []float64{5, 8})
	if d[0] != 0 || d[1] != 0 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 5)
	if m.At(0, 2) != 2 || m.At(1, 1) != 5 {
		t.Fatal("At/Set roundtrip failed")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	// A = L0 L0^T with a known lower factor.
	l0 := NewMatrix(3, 3)
	l0.Set(0, 0, 2)
	l0.Set(1, 0, 1)
	l0.Set(1, 1, 3)
	l0.Set(2, 0, 0.5)
	l0.Set(2, 1, -1)
	l0.Set(2, 2, 1.5)
	l, err := mulTransposed(l0).Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(l.At(i, j), l0.At(i, j), 1e-12) {
				t.Fatalf("Cholesky factor mismatch at (%d,%d): %v vs %v", i, j, l.At(i, j), l0.At(i, j))
			}
		}
	}
	if got, want := l.LogDetLower(), 2*math.Log(2*3*1.5); !almostEqual(got, want, 1e-12) {
		t.Fatalf("LogDetLower = %v, want %v", got, want)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := a.Cholesky(); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestSolveLower(t *testing.T) {
	l := NewMatrix(2, 2)
	l.Set(0, 0, 2)
	l.Set(1, 0, 1)
	l.Set(1, 1, 4)
	x, err := l.SolveLower([]float64{4, 10})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 || x[1] != 2 {
		t.Fatalf("SolveLower = %v", x)
	}
	l.Set(1, 1, 0)
	if _, err := l.SolveLower([]float64{1, 1}); err == nil {
		t.Fatal("expected zero-diagonal error")
	}
}

func TestAddDiagonal(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddDiagonal(3)
	if m.At(0, 0) != 3 || m.At(1, 1) != 3 || m.At(0, 1) != 0 {
		t.Fatalf("AddDiagonal = %v", m.Data)
	}
}

// Property: Cholesky of A + n*I (diagonally dominant random symmetric A)
// reconstructs the matrix.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(uint64(seed)%4) + 2
		a := NewMatrix(n, n)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / float64(1<<53)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := next() - 0.5
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		a.AddDiagonal(float64(n)) // ensure SPD
		l, err := a.Cholesky()
		if err != nil {
			return false
		}
		rec := mulTransposed(l)
		for i := range a.Data {
			if !almostEqual(rec.Data[i], a.Data[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
