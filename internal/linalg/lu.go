package linalg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// ErrSingular indicates a zero pivot during factorization.
var ErrSingular = errors.New("linalg: matrix is numerically singular")

// LUFactors holds an in-place LU factorization with partial pivoting:
// A = P·L·U where L is unit lower triangular, both packed into LU.
type LUFactors struct {
	LU  *Matrix
	Piv []int // Piv[k] = row swapped with k at step k
}

// LUFactorize computes the factorization of a copy of a using unblocked
// right-looking elimination with partial pivoting. Use LUFactorizeBlocked
// for large matrices; this form is the reference the blocked one is tested
// against.
func LUFactorize(a *Matrix) (*LUFactors, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	lu := a.Clone()
	n := lu.Rows
	piv := make([]int, n)
	for k := 0; k < n; k++ {
		// Partial pivot: largest |value| in column k at or below the diagonal.
		p := k
		best := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				best, p = v, i
			}
		}
		if best == 0 {
			return nil, ErrSingular
		}
		piv[k] = p
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) * inv
			lu.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return &LUFactors{LU: lu, Piv: piv}, nil
}

// LUFactorizeBlocked computes the factorization with the HPL-style blocked
// (panel) algorithm: factor an nb-wide panel, apply its row swaps to the
// trailing matrix, solve the U block row, then rank-nb update the trailing
// submatrix with a (parallel) matrix multiply. workers ≤ 0 uses GOMAXPROCS.
func LUFactorizeBlocked(a *Matrix, nb, workers int) (*LUFactors, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if nb <= 0 {
		nb = 32
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lu := a.Clone()
	n := lu.Rows
	piv := make([]int, n)

	for k0 := 0; k0 < n; k0 += nb {
		k1 := min(k0+nb, n)
		// --- Panel factorization (columns k0..k1) with partial pivoting.
		for k := k0; k < k1; k++ {
			p := k
			best := math.Abs(lu.At(k, k))
			for i := k + 1; i < n; i++ {
				if v := math.Abs(lu.At(i, k)); v > best {
					best, p = v, i
				}
			}
			if best == 0 {
				return nil, ErrSingular
			}
			piv[k] = p
			if p != k {
				rk, rp := lu.Row(k), lu.Row(p)
				for j := range rk {
					rk[j], rp[j] = rp[j], rk[j]
				}
			}
			inv := 1 / lu.At(k, k)
			for i := k + 1; i < n; i++ {
				l := lu.At(i, k) * inv
				lu.Set(i, k, l)
				if l == 0 {
					continue
				}
				ri, rk := lu.Row(i), lu.Row(k)
				for j := k + 1; j < k1; j++ { // update within the panel only
					ri[j] -= l * rk[j]
				}
			}
		}
		if k1 == n {
			break
		}
		// --- U block row: solve L11·U12 = A12 (unit lower triangular solve).
		for k := k0; k < k1; k++ {
			rk := lu.Row(k)
			for i := k + 1; i < k1; i++ {
				l := lu.At(i, k)
				if l == 0 {
					continue
				}
				ri := lu.Row(i)
				for j := k1; j < n; j++ {
					ri[j] -= l * rk[j]
				}
			}
		}
		// --- Trailing update: A22 -= L21·U12, parallel over row stripes.
		updateTrailing(lu, k0, k1, n, workers)
	}
	return &LUFactors{LU: lu, Piv: piv}, nil
}

// updateTrailing performs A22 -= L21·U12 where L21 = lu[k1:n, k0:k1] and
// U12 = lu[k0:k1, k1:n].
func updateTrailing(lu *Matrix, k0, k1, n, workers int) {
	rows := n - k1
	if rows <= 0 {
		return
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := k1 + w*chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ri := lu.Row(i)
				for k := k0; k < k1; k++ {
					l := ri[k]
					if l == 0 {
						continue
					}
					rk := lu.Row(k)
					for j := k1; j < n; j++ {
						ri[j] -= l * rk[j]
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Solve solves A·x = b using the factorization. b is not modified.
func (f *LUFactors) Solve(b []float64) ([]float64, error) {
	n := f.LU.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve length mismatch %d vs %d", len(b), n)
	}
	x := append([]float64(nil), b...)
	// Apply permutation.
	for k := 0; k < n; k++ {
		if p := f.Piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.LU.Row(i)
		var sum float64
		for j := 0; j < i; j++ {
			sum += row[j] * x[j]
		}
		x[i] -= sum
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.LU.Row(i)
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = sum / d
	}
	return x, nil
}

// ScaledResidual computes the HPL acceptance metric
//
//	‖A·x − b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · n)
//
// which the HPL harness requires to be O(1) (the standard threshold is 16).
func ScaledResidual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	r := make([]float64, len(b))
	for i := range r {
		r[i] = ax[i] - b[i]
	}
	n := float64(a.Rows)
	eps := math.Nextafter(1, 2) - 1
	denom := eps * (a.InfNorm()*VecInfNorm(x) + VecInfNorm(b)) * n
	if denom == 0 {
		return 0
	}
	return VecInfNorm(r) / denom
}
