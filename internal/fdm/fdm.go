// Package fdm implements the fast diagonalization method (Lynch, Rice &
// Thomas 1964) used by the paper's overlapping Schwarz preconditioner
// (Sec. 5): the inverse of a separable operator
//
//	Ã = B_y ⊗ A_x + A_y ⊗ B_x            (2D, eq. (2) of the paper)
//
// is applied as (S_y ⊗ S_x)[Λ_y ⊕ Λ_x]⁻¹(S_yᵀ B_y ⊗ S_xᵀ B_x) … with the
// B-orthonormal generalized eigenvectors S solving A z = λ B z, the whole
// local solve costs the same O(N^{d+1}) as a matrix-vector product.
package fdm

import (
	"fmt"

	"repro/internal/la"
	"repro/internal/tensor"
)

// Solver2D applies Ã⁻¹ for one separable 2D operator.
type Solver2D struct {
	nx, ny   int
	Sx, Sy   []float64 // eigenvector matrices (columns B-orthonormal)
	SxT, SyT []float64
	Dinv     []float64 // 1/(λx_i + λy_j), 0 where the sum is (near) zero
}

// eps below which an eigenvalue sum is treated as a null mode.
const nullEps = 1e-12

// New2D builds the solver from the 1D stiffness/mass pairs (ax, bx) and
// (ay, by), each n x n dense with b symmetric positive definite.
func New2D(ax, bx []float64, nx int, ay, by []float64, ny int) (*Solver2D, error) {
	lx, zx, err := la.GenSymEig(ax, bx, nx)
	if err != nil {
		return nil, fmt.Errorf("fdm: x eigenproblem: %w", err)
	}
	ly, zy, err := la.GenSymEig(ay, by, ny)
	if err != nil {
		return nil, fmt.Errorf("fdm: y eigenproblem: %w", err)
	}
	s := &Solver2D{nx: nx, ny: ny, Sx: zx, Sy: zy}
	// With B-orthonormal eigenvectors (Zᵀ B Z = I) the inverse is exactly
	// (Z_y ⊗ Z_x)(Λ_y ⊕ Λ_x)⁻¹(Z_yᵀ ⊗ Z_xᵀ): the analysis stage uses the
	// plain transpose.
	s.SxT = tensor.Transpose(zx, nx, nx)
	s.SyT = tensor.Transpose(zy, ny, ny)
	s.Dinv = make([]float64, nx*ny)
	scale := maxAbs(lx) + maxAbs(ly)
	if scale == 0 {
		scale = 1
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			d := lx[i] + ly[j]
			if d > nullEps*scale || d < -nullEps*scale {
				s.Dinv[j*nx+i] = 1 / d
			}
		}
	}
	return s, nil
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

// Apply computes out = Ã⁻¹ in (sizes nx*ny, r fastest). work must have
// length ≥ WorkLen2D(); out must not alias in or work.
func (s *Solver2D) Apply(out, in, work []float64) {
	n := s.nx * s.ny
	w1, w2 := work[:n], work[n:2*n]
	tensor.Apply2D(w1, s.Sx, s.SyT, in, w2, s.nx, s.nx, s.ny, s.ny)
	for i := 0; i < n; i++ {
		w1[i] *= s.Dinv[i]
	}
	tensor.Apply2D(out, s.SxT, s.Sy, w1, w2, s.nx, s.nx, s.ny, s.ny)
}

// WorkLen2D returns the scratch size Apply requires.
func (s *Solver2D) WorkLen2D() int { return 2 * s.nx * s.ny }

// Flops returns the operation count of one Apply.
func (s *Solver2D) Flops() int64 {
	return 2*tensor.FlopsApply2D(s.nx, s.nx, s.ny, s.ny) + int64(s.nx*s.ny)
}

// Solver3D applies Ã⁻¹ for a separable 3D operator
// B⊗B⊗A + B⊗A⊗B + A⊗B⊗B.
type Solver3D struct {
	nx, ny, nz    int
	Sx, Sy, Sz    []float64
	SxT, SyT, SzT []float64
	Dinv          []float64
}

// New3D builds the 3D fast diagonalization solver.
func New3D(ax, bx []float64, nx int, ay, by []float64, ny int, az, bz []float64, nz int) (*Solver3D, error) {
	lx, zx, err := la.GenSymEig(ax, bx, nx)
	if err != nil {
		return nil, fmt.Errorf("fdm: x eigenproblem: %w", err)
	}
	ly, zy, err := la.GenSymEig(ay, by, ny)
	if err != nil {
		return nil, fmt.Errorf("fdm: y eigenproblem: %w", err)
	}
	lz, zz, err := la.GenSymEig(az, bz, nz)
	if err != nil {
		return nil, fmt.Errorf("fdm: z eigenproblem: %w", err)
	}
	s := &Solver3D{nx: nx, ny: ny, nz: nz, Sx: zx, Sy: zy, Sz: zz}
	s.SxT = tensor.Transpose(zx, nx, nx)
	s.SyT = tensor.Transpose(zy, ny, ny)
	s.SzT = tensor.Transpose(zz, nz, nz)
	s.Dinv = make([]float64, nx*ny*nz)
	scale := maxAbs(lx) + maxAbs(ly) + maxAbs(lz)
	if scale == 0 {
		scale = 1
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				d := lx[i] + ly[j] + lz[k]
				if d > nullEps*scale || d < -nullEps*scale {
					s.Dinv[(k*ny+j)*nx+i] = 1 / d
				}
			}
		}
	}
	return s, nil
}

// Apply computes out = Ã⁻¹ in. work must have length ≥
// tensor.Work3DLen(nx,nx,ny,ny,nz,nz) + nx*ny*nz.
func (s *Solver3D) Apply(out, in, work []float64) {
	n := s.nx * s.ny * s.nz
	tw := work[:len(work)-n]
	tmp := work[len(work)-n:]
	tensor.Apply3D(tmp, s.Sx, s.SyT, s.SzT, in, tw, s.nx, s.nx, s.ny, s.ny, s.nz, s.nz)
	for i := 0; i < n; i++ {
		tmp[i] *= s.Dinv[i]
	}
	tensor.Apply3D(out, s.SxT, s.Sy, s.Sz, tmp, tw, s.nx, s.nx, s.ny, s.ny, s.nz, s.nz)
}

// WorkLen3D returns the scratch size Apply requires.
func (s *Solver3D) WorkLen3D() int {
	return tensor.Work3DLen(s.nx, s.nx, s.ny, s.ny, s.nz, s.nz) + s.nx*s.ny*s.nz
}

// Flops returns the operation count of one Apply.
func (s *Solver3D) Flops() int64 {
	return 2*tensor.FlopsApply3D(s.nx, s.nx, s.ny, s.ny, s.nz, s.nz) + int64(s.nx*s.ny*s.nz)
}
