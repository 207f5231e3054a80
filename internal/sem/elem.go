package sem

// elem.go holds the per-element operator kernels: the stiffness (sem.go),
// gradient, filter and Helmholtz-diagonal kernels of one global element e on
// local blocks of length Np, with caller scratch. The full-mesh loops of this
// package and the time step of internal/ns (over the elements a solver owns,
// on whatever workers its Machine runs) both run them, so every backend
// reproduces the same arithmetic element by element.

import "repro/internal/tensor"

// GradElement computes element e's physical-space gradient of the local
// nodal block ue (length Np) into the local blocks o0, o1 (and o2 in 3D;
// pass nil in 2D); s is caller scratch of length ≥ ElemScratchLen.
func (d *Disc) GradElement(o0, o1, o2, ue []float64, e int, s []float64) {
	m := d.M
	np1 := m.N + 1
	np := m.Np
	off := e * np
	if m.Dim == 2 {
		ur, us := s[:np], s[np:2*np]
		tensor.ApplyR2D(ur, m.Dt, ue, np1, np1, np1)
		tensor.ApplyS2D(us, m.D, ue, np1, np1, np1)
		rx, ry, sx, sy := m.RX[0], m.RX[1], m.RX[2], m.RX[3]
		for i := 0; i < np; i++ {
			o0[i] = rx[off+i]*ur[i] + sx[off+i]*us[i]
			o1[i] = ry[off+i]*ur[i] + sy[off+i]*us[i]
		}
		return
	}
	ur, us, ut := s[:np], s[np:2*np], s[2*np:3*np]
	tensor.ApplyR3D(ur, m.Dt, ue, np1, np1, np1, np1)
	tensor.ApplyS3D(us, m.D, ue, np1, np1, np1, np1)
	tensor.ApplyT3D(ut, m.D, ue, np1, np1, np1, np1)
	for i := 0; i < np; i++ {
		gi := off + i
		o0[i] = m.RX[0][gi]*ur[i] + m.RX[3][gi]*us[i] + m.RX[6][gi]*ut[i]
		o1[i] = m.RX[1][gi]*ur[i] + m.RX[4][gi]*us[i] + m.RX[7][gi]*ut[i]
		o2[i] = m.RX[2][gi]*ur[i] + m.RX[5][gi]*us[i] + m.RX[8][gi]*ut[i]
	}
}

// FilterElement applies the tensor-product filter to the local block ue in
// place (the element index is irrelevant: the filter is geometry-free); s is
// caller scratch of length ≥ ElemScratchLen.
func (d *Disc) FilterElement(f *Filter, ue []float64, s []float64) {
	if f == nil || f.Alpha == 0 {
		return
	}
	m := d.M
	np1 := f.np1
	np := m.Np
	if m.Dim == 2 {
		work, out := s[:np], s[np:2*np]
		tensor.Apply2D(out, f.ft, f.F, ue, work, np1, np1, np1, np1)
		copy(ue, out)
		return
	}
	need := tensor.Work3DLen(np1, np1, np1, np1, np1, np1)
	work := s[:need]
	out := s[need : need+np]
	tensor.Apply3D(out, f.ft, f.F, f.F, ue, work, np1, np1, np1, np1, np1, np1)
	copy(ue, out)
}

// HelmholtzDiagElement writes element e's unassembled diagonal of
// h1·A + h2·B into the local block de (length Np). The caller assembles the
// blocks (distributed gs sum) and sets Dirichlet rows to one, mirroring the
// serial HelmholtzDiag.
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
