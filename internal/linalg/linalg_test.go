package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"powerbench/internal/rng"
)

func randomMatrix(n int, seed float64) *Matrix {
	m := NewMatrix(n, n)
	s := rng.NewStream(seed, rng.A)
	m.FillRandom(s)
	// Diagonal dominance keeps the test matrices comfortably nonsingular.
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Error("At/Set broken")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Error("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases storage")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dims should panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestNorms(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, -2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	if got := m.InfNorm(); got != 7 {
		t.Errorf("InfNorm = %v", got)
	}
	if got := VecInfNorm([]float64{-5, 2}); got != 5 {
		t.Errorf("VecInfNorm = %v", got)
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
}

func matricesAlmostEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestLUSolveKnownSystem(t *testing.T) {
	// [[2,1],[1,3]] x = [5,10] → x = [1,3].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	f, err := LUFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := LUFactorize(a); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := LUFactorize(NewMatrix(2, 3)); err == nil {
		t.Error("non-square should error")
	}
	if _, err := LUFactorizeBlocked(NewMatrix(2, 3), 2, 1); err == nil {
		t.Error("non-square blocked should error")
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a pivot swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	f, err := LUFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// x = [3, 2].
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v", x)
	}
	if f.Piv[0] != 1 {
		t.Errorf("Piv = %v, want row 1 swapped into row 0", f.Piv)
	}
}

func TestBlockedMatchesUnblocked(t *testing.T) {
	for _, n := range []int{1, 7, 16, 33, 64, 100} {
		a := randomMatrix(n, rng.DefaultSeed)
		ref, err := LUFactorize(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, nb := range []int{1, 4, 8, 32} {
			got, err := LUFactorizeBlocked(a, nb, 2)
			if err != nil {
				t.Fatalf("n=%d nb=%d: %v", n, nb, err)
			}
			if !matricesAlmostEqual(ref.LU, got.LU, 1e-8) {
				t.Errorf("n=%d nb=%d: blocked LU differs from unblocked", n, nb)
			}
			for k := range ref.Piv {
				if ref.Piv[k] != got.Piv[k] {
					t.Errorf("n=%d nb=%d: pivot %d differs (%d vs %d)", n, nb, k, ref.Piv[k], got.Piv[k])
					break
				}
			}
		}
	}
}

func TestSolveResidualSmall(t *testing.T) {
	for _, n := range []int{10, 50, 120} {
		a := randomMatrix(n, 12345)
		s := rng.NewStream(999, rng.A)
		b := make([]float64, n)
		for i := range b {
			b[i] = s.Next() - 0.5
		}
		f, err := LUFactorizeBlocked(a, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := ScaledResidual(a, x, b); r > 16 {
			t.Errorf("n=%d scaled residual %v > 16", n, r)
		}
	}
}

func TestSolveLengthMismatch(t *testing.T) {
	f, err := LUFactorize(randomMatrix(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

// Property: solving A·x = A·e for random diagonally dominant A recovers e.
func TestPropertyLUSolveRecovers(t *testing.T) {
	f := func(seedRaw uint32, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		a := randomMatrix(n, float64(seedRaw%100000)+1)
		e := make([]float64, n)
		for i := range e {
			e[i] = float64(i + 1)
		}
		b := a.MulVec(e)
		fac, err := LUFactorizeBlocked(a, 8, 0)
		if err != nil {
			return false
		}
		x, err := fac.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-e[i]) > 1e-6*(1+math.Abs(e[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLUBlocked256(b *testing.B) {
	a := randomMatrix(256, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LUFactorizeBlocked(a, 32, 0); err != nil {
			b.Fatal(err)
		}
	}
}
