package la

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates into element (i,j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// LU holds a dense LU factorization with partial pivoting (PA = LU).
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// FactorLU computes the LU factorization of a (n x n, row-major), which is
// copied; a is not modified. It returns an error if the matrix is singular
// to working precision.
func FactorLU(a []float64, n int) (*LU, error) {
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	copy(f.lu, a)
	lu := f.lu
	for k := 0; k < n; k++ {
		// Pivot search.
		p, pmax := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("la: singular matrix at column %d", k)
		}
		f.piv[k] = p
		if p != k {
			rk, rp := lu[k*n:k*n+n], lu[p*n:p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivv := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivv
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			ri, rk := lu[i*n:i*n+n], lu[k*n:k*n+n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Solve overwrites x (length n) with A⁻¹ b, reading the right-hand side from
// b. b and x may alias.
func (f *LU) Solve(x, b []float64) {
	n := f.n
	if &x[0] != &b[0] {
		copy(x, b)
	}
	// Apply all row interchanges first (the factorization swaps full rows,
	// so the stored L is in final row order), then substitute.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for k := 0; k < n; k++ {
		xk := x[k]
		if xk == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			x[i] -= f.lu[i*n+k] * xk
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
}

// Inverse returns A⁻¹ as a new row-major n x n matrix.
func (f *LU) Inverse() []float64 {
	n := f.n
	inv := make([]float64, n*n)
	col := make([]float64, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		f.Solve(col, e)
		for i := 0; i < n; i++ {
			inv[i*n+j] = col[i]
		}
	}
	return inv
}

// Cholesky holds the lower-triangular factor of an SPD matrix, A = L Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle (full storage)
}

// FactorCholesky computes the Cholesky factorization of the SPD matrix a.
func FactorCholesky(a []float64, n int) (*Cholesky, error) {
	c := &Cholesky{n: n, l: make([]float64, n*n)}
	l := c.l
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("la: matrix not positive definite at pivot %d (value %g)", i, s)
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return c, nil
}

// Solve overwrites x with A⁻¹ b. b and x may alias.
func (c *Cholesky) Solve(x, b []float64) {
	n := c.n
	if &x[0] != &b[0] {
		copy(x, b)
	}
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		ri := c.l[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	// Backward: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= c.l[j*n+i] * x[j]
		}
		x[i] = s / c.l[i*n+i]
	}
}

// L returns the lower-triangular factor (row-major full storage).
func (c *Cholesky) L() []float64 { return c.l }

// SolveLower solves L y = b in place (forward substitution).
func (c *Cholesky) SolveLower(x, b []float64) {
	n := c.n
	if &x[0] != &b[0] {
		copy(x, b)
	}
	for i := 0; i < n; i++ {
		s := x[i]
		ri := c.l[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
}

// SolveUpper solves Lᵀ x = b in place (backward substitution).
func (c *Cholesky) SolveUpper(x, b []float64) {
	n := c.n
	if &x[0] != &b[0] {
		copy(x, b)
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= c.l[j*n+i] * x[j]
		}
		x[i] = s / c.l[i*n+i]
	}
}

// BandedCholesky is the Cholesky factorization of an SPD band matrix with
// half-bandwidth bw, stored by diagonals: band[d][i] holds A[i+d, i] for
// d = 0..bw. It backs the "redundant banded LU" coarse-solver baseline of
// Fig. 6.
type BandedCholesky struct {
	n, bw int
	l     [][]float64 // l[d][i] = L[i+d, i]
}

// FactorBanded factorizes the SPD band matrix given by diag(d)[i] = A[i+d,i].
func FactorBanded(band [][]float64, n, bw int) (*BandedCholesky, error) {
	f := &BandedCholesky{n: n, bw: bw, l: make([][]float64, bw+1)}
	for d := 0; d <= bw; d++ {
		f.l[d] = make([]float64, n)
		copy(f.l[d], band[d])
	}
	for j := 0; j < n; j++ {
		s := f.l[0][j]
		if s <= 0 {
			return nil, fmt.Errorf("la: band matrix not positive definite at pivot %d", j)
		}
		d0 := math.Sqrt(s)
		f.l[0][j] = d0
		for d := 1; d <= bw && j+d < n; d++ {
			f.l[d][j] /= d0
		}
		for k := 1; k <= bw && j+k < n; k++ {
			ljk := f.l[k][j]
			if ljk == 0 {
				continue
			}
			for d := k; d <= bw && j+d < n; d++ {
				// A[j+d, j+k] -= L[j+d,j]*L[j+k,j]
				f.l[d-k][j+k] -= f.l[d][j] * ljk
			}
		}
	}
	return f, nil
}

// Solve overwrites x with A⁻¹ b.
func (f *BandedCholesky) Solve(x, b []float64) {
	n, bw := f.n, f.bw
	if &x[0] != &b[0] {
		copy(x, b)
	}
	for i := 0; i < n; i++ {
		s := x[i]
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			s -= f.l[i-j][j] * x[j]
		}
		x[i] = s / f.l[0][i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		hi := i + bw
		if hi >= n {
			hi = n - 1
		}
		for j := i + 1; j <= hi; j++ {
			s -= f.l[j-i][i] * x[j]
		}
		x[i] = s / f.l[0][i]
	}
}

// SolveFlops returns the floating-point operation count of one banded solve,
// used by the coarse-solver performance model.
func (f *BandedCholesky) SolveFlops() int64 {
	// Forward + backward substitution: ~2 * (2*bw+1) * n flops.
	return int64(2*(2*f.bw+1)) * int64(f.n)
}
