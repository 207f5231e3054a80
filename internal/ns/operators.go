package ns

// operators.go holds the operators the step applies on owned blocks: the
// staggered-grid element kernels (read-only on the template, caller
// scratch), the weak divergence D and its transpose, the consistent pressure
// operator E, the Helmholtz operators with their Jacobi diagonals, the
// inner products, and the Schwarz sandwich. Each charges its flops through
// the Machine once per application.

import (
	"math"
	"math/bits"

	"repro/internal/la"
	"repro/internal/tensor"
)

// InterpWorkLen returns the scratch length of the staggered-grid element
// kernels (RestrictVPElem, ProlongPVElem, gradTElem, divElem): the two fields
// divElem holds plus the < 2·Np the interpolation tensor products need beside
// them.
func (t *template) InterpWorkLen() int { return 3 * t.M.Np }

// ProlongPVElem applies J_pv (pressure grid → velocity grid, exact
// polynomial interpolation of the degree-(N-2) pressure) on one element's
// blocks: out has length Np, p length Npp, work length ≥ InterpWorkLen.
func (t *template) ProlongPVElem(out, p, work []float64) {
	tensor.Apply(out, t.pvt, t.interpPV, t.tOp(t.interpPV), p, work, t.np1, t.nm1, t.np1, t.nm1, t.np1, t.nm1)
}

// RestrictVPElem applies J_pvᵀ (velocity grid → pressure grid, the adjoint
// of the prolongation) on one element's blocks: out has length Npp, u length
// Np, work length ≥ InterpWorkLen.
func (t *template) RestrictVPElem(out, u, work []float64) {
	tensor.Apply(out, t.interpPV, t.pvt, t.tOp(t.pvt), u, work, t.nm1, t.np1, t.nm1, t.np1, t.nm1, t.np1)
}

// tOp returns op as the t-direction operator of a tensor.Apply on this
// template's elements: nil, no t apply, in 2-D.
func (t *template) tOp(op []float64) []float64 {
	if t.dim == 2 {
		return nil
	}
	return op
}

// gradTElem writes element e's block of the momentum pressure term Dᵀp,
//
//	outs[c] = Σ_a D_aᵀ (∂r_a/∂x_c · B · J_pv pe),
//
// into the velocity-grid blocks outs[0..dim) (length Np each) from the
// pressure block pe (length Npp). Only the element's non-zero metric pairs
// (a, c) are visited (mesh.RXPairs: dim of them on an undeformed element, up
// to dim² on a deformed one), and the first pair of a component writes its
// block instead of adding to a zeroed one. Scratch: work length ≥
// InterpWorkLen, tv and we length Np.
func (t *template) gradTElem(outs [][]float64, pe []float64, e int, work, tv, we []float64) {
	m := t.M
	np, dim := m.Np, t.dim
	base := e * np
	tv, we, buf := tv[:np], we[:np], work[:np]
	t.ProlongPVElem(tv, pe, work)
	la.Prod(tv, tv, m.B[base:])
	for c := 0; c < dim; c++ {
		oc, first := outs[c][:np], true
		for a := 0; a < dim; a++ {
			if m.RXPairs[e]>>(a*dim+c)&1 == 0 {
				continue
			}
			la.Prod(we, tv, m.RX[a*dim+c][base:])
			if first {
				tensor.ApplyDim(oc, m.Dt, m.D, we, t.np1, dim, a)
				first = false
				continue
			}
			tensor.ApplyDim(buf, m.Dt, m.D, we, t.np1, dim, a)
			la.Axpy(1, buf, oc)
		}
	}
}

// divElem writes element e's block of the weak divergence D u,
//
//	out = J_pvᵀ B Σ_(a,c) ∂r_a/∂x_c · D_a us[c],
//
// into the pressure block out (length Npp) from the velocity blocks
// us[0..dim) (length Np each): the adjoint of gradTElem over the same metric
// pairs, one derivative product per pair — only the contraction the
// divergence needs, not dim full gradients. work length ≥ InterpWorkLen.
func (t *template) divElem(out []float64, us [][]float64, e int, work []float64) {
	m := t.M
	np, dim := m.Np, t.dim
	base := e * np
	div, du := work[:np], work[np:2*np]
	first := true
	for k := 0; k < dim*dim; k++ { // k = a*dim+c
		if m.RXPairs[e]>>k&1 == 0 {
			continue
		}
		tensor.ApplyDim(du, m.D, m.Dt, us[k%dim], t.np1, dim, k/dim)
		if first {
			la.Prod(div, du, m.RX[k][base:])
			first = false
			continue
		}
		la.AddProd(div, m.RX[k][base:], du)
	}
	la.Prod(div, div, m.B[base:])
	t.RestrictVPElem(out, div, work[np:])
}

// eApplyFlops returns the floating point operations gradTElem and divElem
// perform on element e: the staggered-grid interpolation and per non-zero
// metric pair one derivative product (matrix–matrix), the mass weighting and
// per pair the metric scaling and, beyond the first pair of a component, its
// sum (vector).
func (t *template) eApplyFlops(e int) (gradT, div flops) {
	np, dim := int64(t.M.Np), int64(t.dim)
	pairs := int64(bits.OnesCount16(t.M.RXPairs[e]))
	interp := tensor.FlopsApply(t.dim, t.np1, t.nm1, t.np1, t.nm1, t.np1, t.nm1) // J_pv; J_pvᵀ costs the same
	deriv := tensor.FlopsApplyDim(t.np1, t.dim)
	gradT = flops{interp + pairs*deriv, np + pairs*np + (pairs-dim)*np}
	div = flops{interp + pairs*deriv, 2 * pairs * np}
	return gradT, div
}

// Divergence computes the weak divergence D u into the pressure space by
// GLL quadrature: (D u)_q = Σ_i h_q(ξ_i) B_i (∇·u)(ξ_i), i.e.
// D = J_pvᵀ B_v div — the exact weak form ∫ q ∇·u for the degree-(N-2)
// pressure test functions (the quadrature is exact on affine elements,
// which is what keeps the P_N–P_{N-2} pair inf-sup compatible discretely).
// One pass of divElem over the owned elements.
func (s *Solver) Divergence(out []float64, u [3][]float64) {
	np, npp, k := s.M.Np, s.npp, &s.work
	for li, e := range s.elems {
		for c := range k.blocks {
			k.blocks[c] = u[c][li*np : (li+1)*np]
		}
		s.divElem(out[li*npp:(li+1)*npp], k.blocks, e, k.interp)
	}
	s.charge(s.divFlops)
}

// GradientT computes the momentum pressure term Dᵀ p: the (unassembled)
// velocity-grid vector whose plain dot with any velocity u equals pᵀ (D u).
// outs must hold dim slices of length n. One pass of gradTElem over the
// owned elements.
func (s *Solver) GradientT(outs [][]float64, p []float64) {
	np, npp, k := s.M.Np, s.npp, &s.work
	for li, e := range s.elems {
		for c := range k.blocks {
			k.blocks[c] = outs[c][li*np : (li+1)*np]
		}
		s.gradTElem(k.blocks, p[li*npp:(li+1)*npp], e, k.interp, k.tv, k.we)
	}
	s.charge(s.gradTFlops)
}

// applyE applies the consistent pressure Poisson operator
// E = D (M B̃⁻¹ QQᵀ) Dᵀ (Sec. 4 of the paper). For enclosed domains the
// constant mode is deflated so CG sees an SPD operator.
func (s *Solver) applyE(out, p []float64) {
	t0 := s.instr.eapply.Begin()
	s.GradientT(s.gp[:s.dim], p)
	s.mach.Assemble(s.gp[:s.dim])
	for c := 0; c < s.dim; c++ {
		la.Prod(s.gp[c], s.gp[c], s.invBmL)
	}
	s.mach.Charge(0, int64(s.dim*s.n)) // the multiplier after the direct stiffness sum
	s.Divergence(out, s.gp)
	if s.enclosed {
		s.deflatePressure(out)
	}
	s.instr.eapply.End(t0)
}

// dotShare is this solver's share of the inner product of velocity-grid
// fields in redundant element-local storage: each global node is counted once
// (weighted by its reciprocal multiplicity). Machine.Sum or, for a batch, SumN
// makes it whole.
func (s *Solver) dotShare(u, v []float64) float64 {
	s.mach.Charge(0, int64(3*len(u)))
	return la.DotW(u, v, s.rmult)
}

// pressureDotShare is the share of the plain inner product on the pressure
// space, whose nodes are never shared: no multiplicity.
func (s *Solver) pressureDotShare(a, b []float64) float64 {
	s.mach.Charge(0, int64(2*len(a)))
	return la.Dot(a, b)
}

// pressureDot is the whole product, a reduction of its own: norms, set-up.
func (s *Solver) pressureDot(a, b []float64) float64 {
	return s.mach.Sum(s.pressureDotShare(a, b))
}

// deflatePressure removes the plain global mean — the symmetric projector
// onto the orthogonal complement of the constant null space of E (range(E) ⊥ 1
// in the plain dot because ∫∇·v = 0 on enclosed domains).
func (s *Solver) deflatePressure(p []float64) {
	mean := s.mach.Sum(la.Sum(p)) / float64(s.M.K*s.npp)
	la.Axpy(-mean, s.onesP, p) // p + (−mean)·1 is p − mean, bitwise
	s.mach.Charge(0, int64(2*len(p)))
}

// applyMask zeroes the Dirichlet entries of mask (nil = none).
func applyMask(u, mask []float64) {
	la.Prod(u[:len(mask)], u, mask)
}

// assembleOne is Machine.Assemble on a single field.
func (s *Solver) assembleOne(u []float64) {
	s.one[0] = u
	s.mach.Assemble(s.one[:])
}

// assemble is the direct stiffness sum of fields, in one exchange, followed
// by the Dirichlet mask.
func (s *Solver) assemble(fields [][]float64, mask []float64) {
	s.mach.Assemble(fields)
	for _, u := range fields {
		applyMask(u, mask)
		s.mach.Charge(0, int64(len(u)))
	}
}

// helmholtzOp is one Helmholtz operator of the step, h1·A + h2·B on the
// Dirichlet set of mask (the velocity's or the scalar's), with h2·B and its
// assembled diagonal for Jacobi.
type helmholtzOp struct {
	h1   float64
	h2B  []float64 // h2·B, entry by entry as the apply would form it
	mask []float64
	diag []float64
}

// helmholtzOps builds the operators h1·A + (β/Δt)·B of BDF orders 1…Order,
// each diagonal with one direct stiffness sum and unit on the Dirichlet rows
// of mask, so Jacobi inversion stays defined.
func (s *Solver) helmholtzOps(h1 float64, mask []float64) []helmholtzOp {
	ops := make([]helmholtzOp, s.Cfg.Order)
	for q := range ops {
		beta, _ := bdf(q + 1)
		h2 := beta / s.Cfg.Dt
		d, np := make([]float64, s.n), s.M.Np
		for li, e := range s.elems {
			s.D.HelmholtzDiagElement(d[li*np:(li+1)*np], e, h1, h2)
		}
		s.assembleOne(d)
		for i, mk := range mask {
			if mk == 0 {
				d[i] = 1
			}
		}
		s.charge(s.stiffF.times(len(s.elems)))
		h2B := append([]float64(nil), s.b...)
		la.Scale(h2, h2B)
		ops[q] = helmholtzOp{h1: h1, h2B: h2B, mask: mask, diag: d}
	}
	return ops
}

// helmholtz applies outs[c] = M QQᵀ (h1·A + h2·B) ins[c], the operator H of
// Sec. 4, with one direct stiffness sum for all of them.
func (s *Solver) helmholtz(outs, ins [][]float64, op *helmholtzOp) {
	np := s.M.Np
	for c, out := range outs {
		in := ins[c]
		for li, e := range s.elems {
			s.D.StiffnessElement(out[li*np:(li+1)*np], in[li*np:(li+1)*np], e, s.work.sem)
		}
		la.Scale(op.h1, out) // out = h1·out + (h2·B)⊙in
		la.AddProd(out, op.h2B, in)
		s.charge(s.stiffF.times(len(s.elems)).plus(flops{vec: 3 * int64(len(out))}))
	}
	s.assemble(outs, op.mask)
}

// pointJacobi is out = in / diag.
func (s *Solver) pointJacobi(out, in, diag []float64) {
	la.Quot(out[:len(in)], in, diag)
	s.mach.Charge(0, int64(len(in)))
}

// sandwich applies the overlapping Schwarz preconditioner of E on the
// pressure grid (schwarz.Pressure), M⁻¹ = R₀ᵀA₀⁻¹R₀ + Σ_k R_kᵀÃ_k⁻¹R_k:
// extrude every residual block into its subdomain block and assemble, so each
// border receives the neighbour's layer; solve the subdomains; assemble the
// solutions and fold the neighbours' border corrections back onto the own
// layers; optionally add the vertex term, restricted from r and solved by the
// Machine. The reference variant runs it with the coarse term; the
// Chebyshev–Schwarz base sweep without, the polynomial supplying the global
// coupling instead. No deflation — callers own the null space.
func (s *Solver) sandwich(out, r []float64, coarse bool) {
	rv, zv := s.rvArena, s.zvArena
	np, npp := s.M.Np, s.npp
	for li := range s.elems {
		s.pSchwarz.ExtrudeElem(rv[li*np:(li+1)*np], r[li*npp:(li+1)*npp])
	}
	s.assembleOne(rv)
	s.mach.Begin(SecSchwarzLocal)
	for li, e := range s.elems {
		s.pSchwarz.LocalSolveElem(zv[li*np:(li+1)*np], rv[li*np:(li+1)*np], r[li*npp:(li+1)*npp], e, s.work.fdm)
	}
	s.charge(s.fdmFlops)
	s.mach.End(SecSchwarzLocal, StepStats{})
	s.assembleOne(zv)
	for li := range s.elems {
		s.pSchwarz.FoldElem(out[li*npp:(li+1)*npp], zv[li*np:(li+1)*np], rv[li*np:(li+1)*np])
	}
	if coarse {
		s.mach.Begin(SecSchwarzCoarse)
		r0 := s.r0
		for i := range r0 {
			r0[i] = 0
		}
		s.mach.Charge(0, s.pSchwarz.CoarseRestrictElems(r0, s.vsums, r, s.elems))
		s.mach.CoarseSolve(s.x0, r0)
		s.mach.Charge(0, s.pSchwarz.CoarseProlongElems(out, s.x0, s.elems))
		s.mach.End(SecSchwarzCoarse, StepStats{})
	}
}

// DivergenceNorm returns ‖D u‖₂ of the current velocity — the discrete
// continuity residual.
func (s *Solver) DivergenceNorm() float64 {
	out := s.divArena
	s.Divergence(out, s.U)
	return math.Sqrt(s.pressureDot(out, out))
}
