package sem

// elem.go holds the per-element operator kernels: the stiffness (sem.go),
// gradient, filter and Helmholtz-diagonal kernels on local blocks of length
// Np, with caller scratch. The tensor-product kernels act on a run of ne
// consecutive elements (mesh.Run) in one product per direction, bitwise the
// element-by-element result. The full-mesh loops of this package and the time
// step of internal/ns (over the runs of the elements a solver owns) both run
// them, so every backend reproduces the same arithmetic element by element.

import (
	"repro/internal/la"
	"repro/internal/tensor"
)

// GradElement computes the physical-space gradient of the run of ne
// consecutive elements [e0, e0+ne) from their local nodal blocks ue (ne
// blocks of length Np), o_c = Σ_a ∂r_a/∂x_c · D_a ue, into the local blocks
// o0, o1 (and o2 in 3D; pass nil in 2D); s is caller scratch of length ≥
// ne·ElemScratchLen.
func (d *Disc) GradElement(o0, o1, o2, ue []float64, e0, ne int, s []float64) {
	m := d.M
	dim := m.Dim
	n, off := ne*m.Np, e0*m.Np
	for a := 0; a < dim; a++ {
		tensor.ApplyDim(s[a*n:(a+1)*n], m.D, m.Dt, ue, m.N+1, dim, a, ne)
	}
	outs := [3][]float64{o0, o1, o2}
	for c := 0; c < dim; c++ {
		oc := outs[c][:n]
		la.Prod(oc, m.RX[c][off:], s[:n])
		for a := 1; a < dim; a++ {
			la.AddProd(oc, m.RX[a*dim+c][off:], s[a*n:(a+1)*n])
		}
	}
}

// FilterElement applies the tensor-product filter in place to the local
// blocks ue of a run of consecutive elements, len(ue)/Np of them (which ones
// is irrelevant: the filter is geometry-free), one product per direction; s
// is caller scratch of length ≥ ElemScratchLen per element of the run.
func (d *Disc) FilterElement(f *Filter, ue []float64, s []float64) {
	if f == nil || f.Alpha == 0 {
		return
	}
	n, np1 := len(ue), f.np1
	var ft []float64 // the t operator: none on a 2-D element
	if d.M.Dim == 3 {
		ft = f.F
	}
	tensor.ApplyRun(s[:n], f.ft, f.F, ft, ue, s[n:], np1, np1, np1, np1, np1, np1, n/d.M.Np)
	copy(ue, s[:n])
}

// StiffnessDiagElement writes element e's unassembled diagonal of the
// stiffness A into the local block de (length Np); a Helmholtz diagonal is
// h1·de + h2·B of it, entry by entry, for every (h1, h2). It keeps a loop per
// dimension on purpose: the 3-D loop interleaves its three p-sums where the
// 2-D one runs its two in turn, and a shared loop would reorder one and move
// every golden digest.
func (d *Disc) StiffnessDiagElement(de []float64, e int) {
	m := d.M
	np1 := m.N + 1
	np := m.Np
	off := e * np
	if m.Dim == 2 {
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				var s float64
				for p := 0; p < np1; p++ {
					dpi := m.D[p*np1+i]
					s += dpi * dpi * m.G[0][off+j*np1+p]
				}
				for p := 0; p < np1; p++ {
					dpj := m.D[p*np1+j]
					s += dpj * dpj * m.G[2][off+p*np1+i]
				}
				s += 2 * m.D[i*np1+i] * m.D[j*np1+j] * m.G[1][off+j*np1+i]
				de[j*np1+i] = s
			}
		}
		return
	}
	idx := func(i, j, k int) int { return off + (k*np1+j)*np1 + i }
	for k := 0; k < np1; k++ {
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				var s float64
				for p := 0; p < np1; p++ {
					dpi := m.D[p*np1+i]
					s += dpi * dpi * m.G[0][idx(p, j, k)]
					dpj := m.D[p*np1+j]
					s += dpj * dpj * m.G[3][idx(i, p, k)]
					dpk := m.D[p*np1+k]
					s += dpk * dpk * m.G[5][idx(i, j, p)]
				}
				dii, djj, dkk := m.D[i*np1+i], m.D[j*np1+j], m.D[k*np1+k]
				s += 2 * dii * djj * m.G[1][idx(i, j, k)]
				s += 2 * dii * dkk * m.G[2][idx(i, j, k)]
				s += 2 * djj * dkk * m.G[4][idx(i, j, k)]
				de[(k*np1+j)*np1+i] = s
			}
		}
	}
}
