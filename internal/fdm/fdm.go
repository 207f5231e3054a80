// Package fdm implements the fast diagonalization method (Lynch, Rice &
// Thomas 1964) used by the paper's overlapping Schwarz preconditioner
// (Sec. 5): the inverse of a separable operator
//
//	Ã = B_y ⊗ A_x + A_y ⊗ B_x            (2D, eq. (2) of the paper)
//
// is applied as (S_y ⊗ S_x)[Λ_y ⊕ Λ_x]⁻¹(S_yᵀ B_y ⊗ S_xᵀ B_x) … with the
// B-orthonormal generalized eigenvectors S solving A z = λ B z, the whole
// local solve costs the same O(N^{d+1}) as a matrix-vector product. In 3D
// the operator is B⊗B⊗A + B⊗A⊗B + A⊗B⊗B and the diagonal Λ_z ⊕ Λ_y ⊕ Λ_x;
// a 2-D solver is the one-layer case of the same tensor applies.
package fdm

import (
	"fmt"

	"repro/internal/la"
	"repro/internal/tensor"
)

// Axis is the generalized eigenpair of one direction's 1-D operator pair,
// A z = λ B z: the eigenvalues λ and the B-orthonormal eigenvectors S with
// their transpose. Solvers built on it share it; it is read-only.
type Axis struct {
	lam   []float64
	s, st []float64
}

// NewAxis solves the eigenproblem of the n x n dense pair (a, b), b
// symmetric positive definite.
func NewAxis(a, b []float64, n int) (*Axis, error) {
	l, z, err := la.GenSymEig(a, b, n)
	if err != nil {
		return nil, fmt.Errorf("fdm: eigenproblem: %w", err)
	}
	// With B-orthonormal eigenvectors (Zᵀ B Z = I) the inverse is exactly
	// (Z_y ⊗ Z_x)(Λ_y ⊕ Λ_x)⁻¹(Z_yᵀ ⊗ Z_xᵀ): the analysis stage uses the
	// plain transpose.
	return &Axis{lam: l, s: z, st: tensor.Transpose(z, n, n)}, nil
}

// Solver applies Ã⁻¹ for one separable 2-D or 3-D operator.
type Solver struct {
	dim   int
	n     [3]int       // extent per direction; n[2] = 0 in 2-D
	s, st [3][]float64 // the axes' eigenvector matrices and their transposes; nil past dim
	dinv  []float64    // 1/(λx_i + λy_j (+ λz_k)), 0 where the sum is (near) zero
}

// eps below which an eigenvalue sum is treated as a null mode.
const nullEps = 1e-12

// New builds the solver of the operator whose direction c has the 1-D
// eigenpair ax[c]. A nil ax[2] makes it 2-D.
func New(ax [3]*Axis) *Solver {
	s := &Solver{dim: 2}
	if ax[2] != nil {
		s.dim = 3
	}
	scale := 0.0
	for c := 0; c < s.dim; c++ {
		s.n[c], s.s[c], s.st[c] = len(ax[c].lam), ax[c].s, ax[c].st
		scale += maxAbs(ax[c].lam)
	}
	if scale == 0 {
		scale = 1
	}
	nx, ny := s.n[0], s.n[1]
	s.dinv = make([]float64, nx*ny*max(s.n[2], 1))
	for l := range s.dinv {
		d := ax[0].lam[l%nx] + ax[1].lam[l/nx%ny]
		if s.dim == 3 {
			d += ax[2].lam[l/(nx*ny)]
		}
		if d > nullEps*scale || d < -nullEps*scale {
			s.dinv[l] = 1 / d
		}
	}
	return s
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		} else if -x > m {
			m = -x
		}
	}
	return m
}

// Apply computes out = Ã⁻¹ in (r fastest). work must have length ≥
// WorkLen(); out must not alias in or work.
func (s *Solver) Apply(out, in, work []float64) {
	nx, ny, nz := s.n[0], s.n[1], s.n[2]
	tmp, tw := work[:len(s.dinv)], work[len(s.dinv):]
	tensor.Apply(tmp, s.s[0], s.st[1], s.st[2], in, tw, nx, nx, ny, ny, nz, nz)
	la.Prod(tmp, tmp, s.dinv)
	tensor.Apply(out, s.st[0], s.s[1], s.s[2], tmp, tw, nx, nx, ny, ny, nz, nz)
}

// WorkLen returns the scratch size Apply requires.
func (s *Solver) WorkLen() int {
	nt := max(s.n[2], 1)
	return len(s.dinv) + tensor.Work3DLen(s.n[0], s.n[0], s.n[1], s.n[1], nt, nt)
}

// Flops returns the operation count of one Apply.
func (s *Solver) Flops() int64 {
	nx, ny, nz := s.n[0], s.n[1], s.n[2]
	return 2*tensor.FlopsApply(s.dim, nx, nx, ny, ny, nz, nz) + int64(len(s.dinv))
}
