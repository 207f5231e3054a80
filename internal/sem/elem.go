package sem

// elem.go holds the per-element operator kernels: the stiffness (sem.go),
// gradient, filter and Helmholtz-diagonal kernels of one global element e on
// local blocks of length Np, with caller scratch. The full-mesh loops of this
// package and the time step of internal/ns (over the elements a solver owns)
// both run them, so every backend
// reproduces the same arithmetic element by element.

import (
	"repro/internal/la"
	"repro/internal/tensor"
)

// GradElement computes element e's physical-space gradient of the local
// nodal block ue (length Np), o_c = Σ_a ∂r_a/∂x_c · D_a ue, into the local
// blocks o0, o1 (and o2 in 3D; pass nil in 2D); s is caller scratch of
// length ≥ ElemScratchLen.
func (d *Disc) GradElement(o0, o1, o2, ue []float64, e int, s []float64) {
	m := d.M
	np, dim := m.Np, m.Dim
	off := e * np
	for a := 0; a < dim; a++ {
		tensor.ApplyDim(s[a*np:(a+1)*np], m.D, m.Dt, ue, m.N+1, dim, a)
	}
	outs := [3][]float64{o0, o1, o2}
	for c := 0; c < dim; c++ {
		oc := outs[c][:np]
		la.Prod(oc, m.RX[c][off:], s[:np])
		for a := 1; a < dim; a++ {
			la.AddProd(oc, m.RX[a*dim+c][off:], s[a*np:(a+1)*np])
		}
	}
}

// FilterElement applies the tensor-product filter to the local block ue in
// place (the element index is irrelevant: the filter is geometry-free); s is
// caller scratch of length ≥ ElemScratchLen.
func (d *Disc) FilterElement(f *Filter, ue []float64, s []float64) {
	if f == nil || f.Alpha == 0 {
		return
	}
	np, np1 := d.M.Np, f.np1
	var ft []float64 // the t operator: none on a 2-D element
	if d.M.Dim == 3 {
		ft = f.F
	}
	tensor.Apply(s[:np], f.ft, f.F, ft, ue, s[np:], np1, np1, np1, np1, np1, np1)
	copy(ue, s[:np])
}

// HelmholtzDiagElement writes element e's unassembled diagonal of
// h1·A + h2·B into the local block de (length Np). The caller assembles the
// blocks (distributed gs sum) and sets Dirichlet rows to one, mirroring the
// serial HelmholtzDiag. It keeps a loop per dimension on purpose: the 3-D
// loop interleaves its three p-sums where the 2-D one runs its two in turn,
// and a shared loop would reorder one and move every golden digest.
func (d *Disc) HelmholtzDiagElement(de []float64, e int, h1, h2 float64) {
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
				l := j*np1 + i
				de[l] = h1*s + h2*m.B[off+l]
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
				l := (k*np1+j)*np1 + i
				de[l] = h1*s + h2*m.B[off+l]
			}
		}
	}
}
