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
	if t.dim == 2 {
		tensor.Apply2D(out, t.pvt, t.interpPV, p, work, t.np1, t.nm1, t.np1, t.nm1)
		return
	}
	tensor.Apply3D(out, t.pvt, t.interpPV, t.interpPV, p, work,
		t.np1, t.nm1, t.np1, t.nm1, t.np1, t.nm1)
}

// RestrictVPElem applies J_pvᵀ (velocity grid → pressure grid, the adjoint
// of the prolongation) on one element's blocks: out has length Npp, u length
// Np, work length ≥ InterpWorkLen.
func (t *template) RestrictVPElem(out, u, work []float64) {
	pvt := t.pvt
	if t.dim == 2 {
		tensor.Apply2D(out, t.interpPV, pvt, u, work, t.nm1, t.np1, t.nm1, t.np1)
		return
	}
	tensor.Apply3D(out, t.interpPV, pvt, pvt, u, work, t.nm1, t.np1, t.nm1, t.np1, t.nm1, t.np1)
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
	mulInto(tv, tv, m.B[base:])
	for c := 0; c < dim; c++ {
		oc, first := outs[c][:np], true
		for a := 0; a < dim; a++ {
			if m.RXPairs[e]>>(a*dim+c)&1 == 0 {
				continue
			}
			mulInto(we, tv, m.RX[a*dim+c][base:])
			if first {
				tensor.ApplyDim(oc, m.Dt, m.D, we, t.np1, dim, a)
				first = false
				continue
			}
			tensor.ApplyDim(buf, m.Dt, m.D, we, t.np1, dim, a)
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
	t.RestrictVPElem(out, div, work[np:])
}

// eApplyFlops returns the floating point operations gradTElem and divElem
// perform on element e: the staggered-grid interpolation, the mass
// weighting, and per non-zero metric pair one derivative product with its
// metric scaling (and, beyond the first pair of a component, its sum).
func (t *template) eApplyFlops(e int) (gradT, div int64) {
	np, dim := int64(t.M.Np), int64(t.dim)
	pairs := int64(bits.OnesCount16(t.M.RXPairs[e]))
	interp := tensor.FlopsApply2D(t.np1, t.nm1, t.np1, t.nm1) // J_pv; J_pvᵀ costs the same
	if dim == 3 {
		interp = tensor.FlopsApply3D(t.np1, t.nm1, t.np1, t.nm1, t.np1, t.nm1)
	}
	deriv := tensor.FlopsApplyDim(t.np1, t.dim)
	gradT = interp + np + pairs*(deriv+np) + (pairs-dim)*np
	div = pairs*(deriv+2*np) + interp
	return gradT, div
}

// Divergence computes the weak divergence D u into the pressure space by
// GLL quadrature: (D u)_q = Σ_i h_q(ξ_i) B_i (∇·u)(ξ_i), i.e.
// D = J_pvᵀ B_v div — the exact weak form ∫ q ∇·u for the degree-(N-2)
// pressure test functions (the quadrature is exact on affine elements,
// which is what keeps the P_N–P_{N-2} pair inf-sup compatible discretely).
// One element-parallel pass of divElem: per-worker scratch and disjoint
// output blocks, so any worker count is bitwise identical.
func (s *Solver) Divergence(out []float64, u [3][]float64) {
	s.curP, s.curU = out, u
	s.mach.ForElements(s.divLoop)
	s.curP, s.curU = nil, [3][]float64{}
	s.mach.Charge(s.divFlops)
}

// GradientT computes the momentum pressure term Dᵀ p: the (unassembled)
// velocity-grid vector whose plain dot with any velocity u equals pᵀ (D u).
// outs must hold dim slices of length n. One element-parallel pass of
// gradTElem, bitwise identical for any worker count.
func (s *Solver) GradientT(outs [][]float64, p []float64) {
	s.curOuts, s.curP = outs, p
	s.mach.ForElements(s.gradTLoop)
	s.curOuts, s.curP = nil, nil
	s.mach.Charge(s.gradTFlops)
}

// applyE applies the consistent pressure Poisson operator
// E = D (M B̃⁻¹ QQᵀ) Dᵀ (Sec. 4 of the paper). For enclosed domains the
// constant mode is deflated so CG sees an SPD operator.
func (s *Solver) applyE(out, p []float64) {
	t0 := s.instr.eapply.Begin()
	s.GradientT(s.gp[:s.dim], p)
	s.mach.Assemble(s.gp[:s.dim])
	for c := 0; c < s.dim; c++ {
		gc := s.gp[c]
		for i, w := range s.invBmL {
			gc[i] *= w
		}
	}
	s.mach.Charge(int64(s.dim * s.n)) // the multiplier after the direct stiffness sum
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
	var sum float64
	v, rmult := v[:len(u)], s.rmult[:len(u)]
	for i := range u {
		sum += u[i] * v[i] * rmult[i]
	}
	s.mach.Charge(int64(3 * len(u)))
	return sum
}

// pressureDotShare is the share of the plain inner product on the pressure
// space, whose nodes are never shared: no multiplicity.
func (s *Solver) pressureDotShare(a, b []float64) float64 {
	s.mach.Charge(int64(2 * len(a)))
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
	var num float64
	for _, v := range p {
		num += v
	}
	mean := s.mach.Sum(num) / float64(s.M.K*s.npp)
	for i := range p {
		p[i] -= mean
	}
	s.mach.Charge(int64(2 * len(p)))
}

// applyMask zeroes the Dirichlet entries of mask (nil = none).
func applyMask(u, mask []float64) {
	for i, mk := range mask {
		u[i] *= mk
	}
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
		s.mach.Charge(int64(len(u)))
	}
}

// helmholtzOp is one Helmholtz operator of the step, h1·A + h2·B on the
// Dirichlet set of mask (the velocity's or the scalar's), with its assembled
// diagonal for Jacobi.
type helmholtzOp struct {
	h1, h2 float64
	mask   []float64
	diag   []float64
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
		s.mach.Charge(s.stiffF * int64(len(s.elems)))
		ops[q] = helmholtzOp{h1: h1, h2: h2, mask: mask, diag: d}
	}
	return ops
}

// helmholtz applies outs[c] = M QQᵀ (h1·A + h2·B) ins[c], the operator H of
// Sec. 4, with one direct stiffness sum for all of them.
func (s *Solver) helmholtz(outs, ins [][]float64, op *helmholtzOp) {
	h1, h2 := op.h1, op.h2
	for c, out := range outs {
		in := ins[c]
		s.curOut, s.curIn = out, in
		s.mach.ForElements(s.stiffLoop)
		b := s.b[:len(out)]
		in = in[:len(out)]
		for i := range out {
			out[i] = h1*out[i] + h2*b[i]*in[i]
		}
		s.mach.Charge(s.stiffF*int64(len(s.elems)) + 3*int64(len(out)))
	}
	s.curOut, s.curIn = nil, nil
	s.assemble(outs, op.mask)
}

// pointJacobi is out = in / diag.
func (s *Solver) pointJacobi(out, in, diag []float64) {
	for i := range in {
		out[i] = in[i] / diag[i]
	}
	s.mach.Charge(int64(len(in)))
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
	s.curV, s.curP = rv, r
	s.mach.ForElements(s.extrudeLoop)
	s.assembleOne(rv)
	s.mach.Begin(SecSchwarzLocal)
	s.curOut = zv
	s.mach.ForElements(s.fdmLoop)
	s.mach.Charge(s.fdmFlops)
	s.mach.End(SecSchwarzLocal, StepStats{})
	s.assembleOne(zv)
	s.curP = out
	s.mach.ForElements(s.foldLoop)
	s.curOut, s.curV, s.curP = nil, nil, nil
	if coarse {
		s.mach.Begin(SecSchwarzCoarse)
		r0 := s.r0
		for i := range r0 {
			r0[i] = 0
		}
		s.mach.Charge(s.pSchwarz.CoarseRestrictElems(r0, r, s.elems))
		s.mach.CoarseSolve(s.x0, r0)
		s.mach.Charge(s.pSchwarz.CoarseProlongElems(out, s.x0, s.elems))
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
