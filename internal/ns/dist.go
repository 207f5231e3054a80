package ns

// dist.go factors the stepper phases into per-element kernels drivable from
// SPMD rank bodies (internal/parrun): a rank owning a subset of elements
// keeps its fields in rank-local block storage and advances them with the
// same arithmetic the serial Step runs, exchanging only through the
// distributed gather–scatter and allreduce inner products. Every method
// here is read-only on the Solver and takes caller-owned scratch (or pulls
// from the Disc's concurrent pool), so all ranks may share one Solver as a
// read-only operator template.

import (
	"math/bits"

	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/tensor"
)

// BDF returns the BDF coefficients for the given effective order: beta
// (coefficient of u^n/Δt) and gamma[q] (coefficient of ũ^{n-q}/Δt).
func BDF(order int) (beta float64, gamma []float64) { return bdf(order) }

// SubstepCount returns the CFL-bounded RK4 substep count for an advection
// interval of length tau given the stable substep size cflDt.
func SubstepCount(tau, cflDt float64) int { return substepCount(tau, cflDt) }

// Npp returns the pressure (Gauss-grid) nodes per element.
func (s *Solver) Npp() int { return s.npp }

// Dim returns the spatial dimension.
func (s *Solver) Dim() int { return s.dim }

// Enclosed reports whether the pressure operator carries the constant null
// space (no open boundary), i.e. whether solves must deflate the mean.
func (s *Solver) Enclosed() bool { return s.enclosed }

// VelocityMask returns the velocity Dirichlet mask in the global
// element-local layout (nil when the problem has no Dirichlet boundary).
// Read-only.
func (s *Solver) VelocityMask() []float64 { return s.maskV }

// BAssem returns the assembled velocity mass diagonal in the global
// element-local layout. Read-only.
func (s *Solver) BAssem() []float64 { return s.bAssem }

// MaskOverBAssem returns the pointwise middle of E = D (M B̃⁻¹ QQᵀ) Dᵀ after
// the direct stiffness sum: VelocityMask / BAssem as one multiplier, global
// element-local layout. Read-only.
func (s *Solver) MaskOverBAssem() []float64 { return s.invBm }

// PressurePre returns the Schwarz preconditioner of the pressure solve (nil
// when PressurePrecond is "none").
func (s *Solver) PressurePre() *schwarz.Precond { return s.pPre }

// FilterOp returns the Fischer–Mullen filter (nil when FilterAlpha is 0).
func (s *Solver) FilterOp() *sem.Filter { return s.filter }

// InterpWorkLen returns the scratch length required by the staggered-grid
// element kernels (RestrictVPElem, ProlongPVElem, GradTElem, DivElem).
func (s *Solver) InterpWorkLen() int { return s.interpWorkLen() }

// RestrictVPElem applies J_pvᵀ (velocity grid → pressure grid, the adjoint
// of the prolongation) on one element's local blocks: out has length Npp,
// u length Np, work length ≥ InterpWorkLen.
func (s *Solver) RestrictVPElem(out, u, work []float64) {
	s.interpElemVPRestrict(out, u, work)
}

// ProlongPVElem applies J_pv (pressure grid → velocity grid, exact
// polynomial interpolation of the degree-(N-2) pressure) on one element's
// local blocks: out has length Np, p length Npp, work length ≥
// InterpWorkLen.
func (s *Solver) ProlongPVElem(out, p, work []float64) {
	s.interpElemPVProlong(out, p, work)
}

// GradTElem writes element e's block of the momentum pressure term Dᵀp,
//
//	outs[c] = Σ_a D_aᵀ (∂r_a/∂x_c · B · J_pv pe),
//
// into the local velocity-grid blocks outs[0..dim) (length Np each) from the
// local pressure block pe (length Npp). Only the element's non-zero metric
// pairs (a, c) are visited (mesh.RXPairs: dim of them on an undeformed
// element, up to dim² on a deformed one), and the first pair of a component
// writes its block instead of adding to a zeroed one. Scratch: work length ≥
// InterpWorkLen, tv and we length Np. The serial loops and the parrun rank
// bodies both run this kernel.
func (s *Solver) GradTElem(outs [][]float64, pe []float64, e int, work, tv, we []float64) {
	m := s.M
	np, dim := m.Np, s.dim
	base := e * np
	tv, we, buf := tv[:np], we[:np], work[:np]
	s.interpElemPVProlong(tv, pe, work)
	mulInto(tv, tv, m.B[base:])
	for c := 0; c < dim; c++ {
		oc, first := outs[c][:np], true
		for a := 0; a < dim; a++ {
			if m.RXPairs[e]>>(a*dim+c)&1 == 0 {
				continue
			}
			mulInto(we, tv, m.RX[a*dim+c][base:])
			if first {
				tensor.ApplyDim(oc, m.Dt, we, s.np1, dim, a)
				first = false
				continue
			}
			tensor.ApplyDim(buf, m.Dt, we, s.np1, dim, a)
			for l, v := range buf {
				oc[l] += v
			}
		}
	}
}

// mulInto sets dst = a·b pointwise over len(dst) entries.
func mulInto(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for l := range dst {
		dst[l] = a[l] * b[l]
	}
}

// DivElem writes element e's block of the weak divergence D u,
//
//	out = J_pvᵀ B Σ_(a,c) ∂r_a/∂x_c · D_a us[c],
//
// into the local pressure block out (length Npp) from the local velocity
// blocks us[0..dim) (length Np each): the adjoint of GradTElem over the same
// metric pairs, one derivative product per pair — only the contraction the
// divergence needs, not dim full gradients. work length ≥ InterpWorkLen.
func (s *Solver) DivElem(out []float64, us [][]float64, e int, work []float64) {
	m := s.M
	np, dim := m.Np, s.dim
	base := e * np
	div, du := work[:np], work[np:2*np]
	first := true
	for k := 0; k < dim*dim; k++ { // k = a*dim+c
		if m.RXPairs[e]>>k&1 == 0 {
			continue
		}
		tensor.ApplyDim(du, m.D, us[k%dim], s.np1, dim, k/dim)
		if first {
			mulInto(div, du, m.RX[k][base:])
			first = false
			continue
		}
		rx := m.RX[k][base:][:np]
		for l, v := range du {
			div[l] += rx[l] * v
		}
	}
	mulInto(div, div, m.B[base:])
	s.interpElemVPRestrict(out, div, work[np:])
}

// EApplyFlops returns the floating point operations GradTElem and DivElem
// perform on element e: the staggered-grid interpolation, the mass
// weighting, and per non-zero metric pair one derivative product with its
// metric scaling (and, beyond the first pair of a component, its sum).
func (s *Solver) EApplyFlops(e int) (gradT, div int64) {
	np, dim := int64(s.M.Np), int64(s.dim)
	pairs := int64(bits.OnesCount16(s.M.RXPairs[e]))
	interp := tensor.FlopsApply2D(s.np1, s.nm1, s.np1, s.nm1) // J_pv; J_pvᵀ costs the same
	if dim == 3 {
		interp = tensor.FlopsApply3D(s.np1, s.nm1, s.np1, s.nm1, s.np1, s.nm1)
	}
	deriv := tensor.FlopsApplyDim(s.np1, s.dim)
	gradT = interp + np + pairs*(deriv+np) + (pairs-dim)*np
	div = pairs*(deriv+2*np) + interp
	return gradT, div
}

// AdvectCoeffs returns the Lagrange interpolation/extrapolation
// coefficients of the k velocity-history fields (at times -(q+1)·Δt) for
// relative time t (t = 0 is the new time level) — the OIFS advecting-field
// weights of advectingField, without touching Solver scratch.
func (s *Solver) AdvectCoeffs(t float64, k int) [4]float64 {
	var coef [4]float64
	tk := func(q int) float64 { return -float64(q+1) * s.Cfg.Dt }
	for q := 0; q < k; q++ {
		l := 1.0
		for j := 0; j < k; j++ {
			if j != q {
				l *= (t - tk(j)) / (tk(q) - tk(j))
			}
		}
		coef[q] = l
	}
	return coef
}
