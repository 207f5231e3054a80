package ns

import (
	"math"

	"repro/internal/gs"
	"repro/internal/tensor"
)

// interpElemVP interpolates one element's velocity-grid values to the
// pressure Gauss grid. work needs np1^dim... a slice of length >= np1^3.
func (s *Solver) interpElemVP(out, u, work []float64) {
	if s.dim == 2 {
		tensor.Apply2D(out, s.interpVP, s.interpVP, u, work, s.nm1, s.np1, s.nm1, s.np1)
		return
	}
	tensor.Apply3D(out, s.interpVP, s.interpVP, s.interpVP, u, work,
		s.nm1, s.np1, s.nm1, s.np1, s.nm1, s.np1)
}

// interpElemPV applies the transpose (adjoint) map: pressure-grid values to
// the velocity grid.
func (s *Solver) interpElemPV(out, p, work, vpt []float64) {
	if s.dim == 2 {
		tensor.Apply2D(out, vpt, vpt, p, work, s.np1, s.nm1, s.np1, s.nm1)
		return
	}
	tensor.Apply3D(out, vpt, vpt, vpt, p, work, s.np1, s.nm1, s.np1, s.nm1, s.np1, s.nm1)
}

// interpWorkLen returns the scratch length of the staggered-grid element
// kernels: the two fields DivElem holds plus the < 2·Np the interpolation
// tensor products need beside them.
func (s *Solver) interpWorkLen() int { return 3 * s.M.Np }

// vpt returns the transposed interpolation matrix (np1 x nm1), cached.
func (s *Solver) vptMatrix() []float64 {
	if s.vptCache == nil {
		t := make([]float64, s.np1*s.nm1)
		for i := 0; i < s.nm1; i++ {
			for j := 0; j < s.np1; j++ {
				t[j*s.nm1+i] = s.interpVP[i*s.np1+j]
			}
		}
		s.vptCache = t
	}
	return s.vptCache
}

// interpElemPVProlong interpolates one element's pressure-grid values to
// the velocity GLL grid using the prolongation J_pv (exact polynomial
// interpolation of the degree-(N-2) pressure).
func (s *Solver) interpElemPVProlong(out, p, work []float64) {
	if s.dim == 2 {
		tensor.Apply2D(out, s.interpPV, s.interpPV, p, work, s.np1, s.nm1, s.np1, s.nm1)
		return
	}
	tensor.Apply3D(out, s.interpPV, s.interpPV, s.interpPV, p, work,
		s.np1, s.nm1, s.np1, s.nm1, s.np1, s.nm1)
}

// interpElemVPRestrict applies J_pvᵀ: velocity-grid values to the pressure
// grid (the adjoint of the prolongation).
func (s *Solver) interpElemVPRestrict(out, u, work []float64) {
	pvt := s.pvtMatrix()
	if s.dim == 2 {
		tensor.Apply2D(out, pvt, pvt, u, work, s.nm1, s.np1, s.nm1, s.np1)
		return
	}
	tensor.Apply3D(out, pvt, pvt, pvt, u, work, s.nm1, s.np1, s.nm1, s.np1, s.nm1, s.np1)
}

// pvtMatrix returns J_pvᵀ (nm1 x np1), cached.
func (s *Solver) pvtMatrix() []float64 {
	if s.pvtCache == nil {
		t := make([]float64, s.nm1*s.np1)
		for i := 0; i < s.np1; i++ {
			for j := 0; j < s.nm1; j++ {
				t[j*s.np1+i] = s.interpPV[i*s.nm1+j]
			}
		}
		s.pvtCache = t
	}
	return s.pvtCache
}

// Divergence computes the weak divergence D u into the pressure space by
// GLL quadrature: (D u)_q = Σ_i h_q(ξ_i) B_i (∇·u)(ξ_i), i.e.
// D = J_pvᵀ B_v div — the exact weak form ∫ q ∇·u for the degree-(N-2)
// pressure test functions (the quadrature is exact on affine elements,
// which is what keeps the P_N–P_{N-2} pair inf-sup compatible discretely).
// One element-parallel pass of DivElem: per-worker scratch and disjoint
// output blocks, so any worker count is bitwise identical.
func (s *Solver) Divergence(out []float64, u [3][]float64) {
	s.curP, s.curU = out, u
	s.DN.ForElements(s.divLoop)
	s.curP, s.curU = nil, [3][]float64{}
	s.D.CountFlops(s.divFlops)
}

// GradientT computes the momentum pressure term Dᵀ p: the (unassembled)
// element-local velocity-grid vector whose plain dot with any velocity u
// equals pᵀ (D u). outs must hold dim slices of length n. One
// element-parallel pass of GradTElem, bitwise identical for any worker count.
func (s *Solver) GradientT(outs [][]float64, p []float64) {
	s.curOuts, s.curP = outs, p
	s.DN.ForElements(s.gradTLoop)
	s.curOuts, s.curP = nil, nil
	s.D.CountFlops(s.gradTFlops)
}

// applyE applies the consistent pressure Poisson operator
// E = D (M B̃⁻¹ QQᵀ) Dᵀ (Sec. 4 of the paper). For enclosed domains the
// constant mode is deflated so CG sees an SPD operator.
func (s *Solver) applyE(out, p []float64) {
	t0 := s.instr.eapply.Begin()
	g := s.scr345
	s.GradientT(g[:s.dim], p)
	var u3 [3][]float64
	for c := 0; c < s.dim; c++ {
		gc := g[c]
		s.D.GS.Apply(gc, gs.Sum)
		for i, w := range s.invBm {
			gc[i] *= w
		}
		u3[c] = gc
	}
	s.Divergence(out, u3)
	if s.enclosed {
		s.deflatePressure(out)
	}
	s.D.CountFlops(int64(2 * s.dim * s.n)) // direct stiffness sum + multiplier
	s.instr.eapply.End(t0)
}

// pressureDot is the plain inner product on the (discontinuous) pressure
// space.
func (s *Solver) pressureDot(a, b []float64) float64 {
	var v float64
	for i := range a {
		v += a[i] * b[i]
	}
	return v
}

// deflatePressure removes the plain mean — the symmetric projector onto
// the orthogonal complement of the constant null space of E (range(E) ⊥ 1
// in the plain dot because ∫∇·v = 0 on enclosed domains).
func (s *Solver) deflatePressure(p []float64) {
	var num float64
	for _, v := range p {
		num += v
	}
	mean := num / float64(len(p))
	for i := range p {
		p[i] -= mean
	}
}

// NormalizePressureMean subtracts the physical (quadrature-weighted) mean,
// the conventional normalization of the reported pressure field.
func (s *Solver) NormalizePressureMean(p []float64) {
	var num, den float64
	for i, w := range s.wJp {
		num += w * p[i]
		den += w
	}
	mean := num / den
	for i := range p {
		p[i] -= mean
	}
}

// pressurePrecond applies the Schwarz-sandwich preconditioner:
// M_E⁻¹ = I_{v→p} M_A⁻¹ I_{v→p}ᵀ with M_A⁻¹ the FDM additive Schwarz +
// coarse preconditioner of the unmasked velocity-grid Laplacian.
func (s *Solver) pressurePrecond(out, r []float64) {
	if s.pPre == nil {
		copy(out, r)
		return
	}
	rv := s.scr[6]
	rin := r
	if s.enclosed {
		rin = s.rinArena
		copy(rin, r)
		s.deflatePressure(rin)
	}
	s.curV, s.curP = rv, rin
	s.DN.ForElements(s.prolongLoop)
	// The Schwarz preconditioner expects an assembled residual.
	s.DN.GS.Apply(rv, gs.Sum)
	zv := s.scr[7]
	s.pPre.Apply(zv, rv)
	s.curV, s.curP = zv, out
	s.DN.ForElements(s.restrictLoop)
	s.curV, s.curP = nil, nil
	if s.enclosed {
		s.deflatePressure(out)
	}
}

// DivergenceNorm returns ‖D u‖₂ of the current velocity — the discrete
// continuity residual.
func (s *Solver) DivergenceNorm() float64 {
	out := s.divArena
	s.Divergence(out, s.U)
	return math.Sqrt(s.pressureDot(out, out))
}
