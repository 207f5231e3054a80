package ns

import (
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/solver"
	"repro/internal/tensor"
)

// getBuf hands out n-length scratch slices from a free list.
func (s *Solver) getBuf() []float64 {
	if len(s.bufPool) > 0 {
		b := s.bufPool[len(s.bufPool)-1]
		s.bufPool = s.bufPool[:len(s.bufPool)-1]
		return b
	}
	return make([]float64, s.n)
}

func (s *Solver) putBuf(b ...[]float64) {
	s.bufPool = append(s.bufPool, b...)
}

// advectingField evaluates the advecting velocity at relative time t
// (t = 0 is the new time level) by Lagrange interpolation/extrapolation of
// the velocity components of the levels hist[k] at times -(k+1)·Δt — the
// OIFS treatment of the material derivative (Sec. 4 of the paper).
func (s *Solver) advectingField(t float64, hist [][][]float64) [3][]float64 {
	k := len(hist)
	var coef [4]float64 // k <= BDF order + 1 <= 4; stack array, no allocation
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
	var c [3][]float64
	for d := 0; d < s.dim; d++ {
		c[d] = s.getBuf()
		clear(c[d]) // the sum starts from +0
		for q := 0; q < k; q++ {
			if coef[q] != 0 {
				la.Axpy(coef[q], hist[q][d], c[d])
			}
		}
	}
	return c
}

func (s *Solver) releaseField(c [3][]float64) {
	for d := 0; d < s.dim; d++ {
		s.putBuf(c[d])
	}
}

// convect computes the advection right-hand side out = -(c·∇)v in the
// convective form; the once-per-step filter supplies the stabilization
// (Sec. 2). The advecting field arrives in reference coordinates
// (toContravariant): (c·∇)v = Σ_a chat[a]·∂v/∂r_a is dim derivative products
// and no physical gradient. Element by element, the reference-coordinate
// derivatives land in scratch and are combined on the spot.
func (s *Solver) convect(out, v []float64, chat [3][]float64) {
	m, np, g := s.M, s.M.Np, &s.work.g
	for li := range s.elems {
		i0 := li * np
		ve, oe := v[i0:i0+np], out[i0:i0+np]
		for a := 0; a < s.dim; a++ {
			tensor.ApplyDim(g[a][:np], m.D, m.Dt, ve, s.np1, s.dim, a)
		}
		// out = -(c0·vr + c1·vs [+ c2·vt]), summed in a's order, then negated.
		la.Prod(oe, chat[0][i0:], g[0])
		for a := 1; a < s.dim; a++ {
			la.AddProd(oe, chat[a][i0:], g[a])
		}
		la.Scale(-1, oe)
	}
	pointwise := 2 * s.dim // dim multiplies, dim-1 adds, the sign
	s.mach.Charge(int64(s.dim)*tensor.FlopsApplyDim(s.np1, s.dim)*int64(len(s.elems)), int64(pointwise*s.n))
}

// toContravariant turns the advecting field c into its reference-coordinate
// components in place, chat[a] = Σ_c ∂r_a/∂x_c·c_c, over each element's
// non-zero metric pairs (mesh.RXPairs; a component's first pair writes). Done
// once per RK4 stage field, it serves every advected component and stage.
func (s *Solver) toContravariant(c [3][]float64) {
	m, np, dim, g := s.M, s.M.Np, s.dim, &s.work.g
	for li, e := range s.elems {
		i0, base := li*np, e*np
		for a := 0; a < dim; a++ {
			ga, first := g[a][:np], true
			for d := 0; d < dim; d++ {
				k := a*dim + d
				if m.RXPairs[e]>>k&1 == 0 {
					continue
				}
				rx, cd := m.RX[k][base:base+np], c[d][i0:i0+np]
				if first {
					la.Prod(ga, rx, cd)
					first = false
					continue
				}
				la.AddProd(ga, rx, cd)
			}
		}
		for a := 0; a < dim; a++ {
			copy(c[a][i0:i0+np], g[a])
		}
	}
	s.mach.Charge(0, s.contraFlops)
}

// rk4AdvectFields advances the given fields through one RK4 substep of the
// pure advection equation dv/dt = -(c(τ)·∇)v, τ from t0 to t0+h: each stage's
// advecting field is extrapolated and transformed once for all of them.
func (s *Solver) rk4AdvectFields(fields [][]float64, t0, h float64, hist [][][]float64) {
	c1 := s.advectingField(t0, hist)
	c2 := s.advectingField(t0+h/2, hist)
	c4 := s.advectingField(t0+h, hist)
	for _, c := range [...][3][]float64{c1, c2, c4} {
		s.toContravariant(c)
	}
	k1 := s.getBuf()
	k2 := s.getBuf()
	k3 := s.getBuf()
	k4 := s.getBuf()
	tmp := s.getBuf()
	for _, f := range fields {
		s.convect(k1, f, c1)
		la.AxpyTo(tmp, h/2, k1, f)
		s.convect(k2, tmp, c2)
		la.AxpyTo(tmp, h/2, k2, f)
		s.convect(k3, tmp, c2)
		la.AxpyTo(tmp, h, k3, f)
		s.convect(k4, tmp, c4)
		// f += h/6·(((k1 + 2k2) + 2k3) + k4), left to right.
		la.AxpyTo(tmp, 2, k2, k1)
		la.Axpy(2, k3, tmp)
		la.Axpy(1, k4, tmp)
		la.Axpy(h/6, tmp, f)
	}
	s.mach.Charge(0, int64(10*s.n*len(fields)))
	s.putBuf(k1, k2, k3, k4, tmp)
	s.releaseField(c1)
	s.releaseField(c2)
	s.releaseField(c4)
}

// massAverage projects element-discontinuous fields back onto the C0 space
// by mass-weighted direct-stiffness averaging, v ← B̃⁻¹ QQᵀ (B v), with one
// direct stiffness sum for all of them.
func (s *Solver) massAverage(fields [][]float64) {
	for _, v := range fields {
		la.Prod(v, v, s.b)
	}
	s.mach.Assemble(fields)
	for _, v := range fields {
		la.Quot(v, v, s.bAssemL)
	}
	s.mach.Charge(0, int64(3*s.n*len(fields)))
}

// maxSubsteps caps the RK4 substeps of one subintegration interval: Step fails
// a flow that needs more rather than integrate above the CFL-stable size.
const maxSubsteps = 2000

// substepsNeeded returns the RK4 substeps that keep an interval of length tau
// under the stable substep size cflDt (+Inf at rest), as a float: a blown-up
// velocity makes it larger than any int.
func substepsNeeded(tau, cflDt float64) float64 {
	return math.Max(1, math.Ceil(tau/cflDt))
}

// advectInto integrates dv/dt = -(c·∇)v backward-started at the fields u0
// (one time level: the velocity components, then the scalar) over an interval
// of length tau ending at the new time level, using RK4 substeps bounded by
// the CFL limit, writing the subintegrated fields into v. The advecting field
// c(τ) is the Lagrange interpolant/extrapolant of the levels' velocity.
// Returns the substep count, which Step has checked against maxSubsteps.
func (s *Solver) advectInto(v, u0 [][]float64, tau, cflDt float64, hist [][][]float64) int {
	nsub := int(substepsNeeded(tau, cflDt))
	h := tau / float64(nsub)
	for c := range v {
		copy(v[c], u0[c])
	}
	// Times of history fields relative to the new time level tNew:
	// hist[k] is at t = -(k+1)*Dt; the integration runs from -tau to 0.
	for sub := 0; sub < nsub; sub++ {
		t0 := -tau + float64(sub)*h
		s.rk4AdvectFields(v, t0, h, hist)
		// Keep the fields C0 across element boundaries (mass-weighted
		// average, the direct-stiffness form of the convective update).
		s.massAverage(v)
	}
	return nsub
}

// scalarSolve performs the implicit diffusion solve of the scalar from its
// slot of the subintegrated levels, in place in the current level's slot.
func (s *Solver) scalarSolve(tilde [][][]float64, gamma []float64, tNew float64) (int, error) {
	cfg := s.Cfg.Scalar
	s.helm = &s.scalarHelm[len(tilde)-1]
	mask := s.helm.mask
	s.bdfHistory(s.bArena[0], s.dim, gamma, tilde)
	s.assemble(s.bArena[:1], mask)
	// Dirichlet lifting.
	tn := s.fields[s.dim : s.dim+1]
	if cfg.DirichletVal != nil {
		for i, mk := range mask {
			if mk == 0 {
				tn[0][i] = cfg.DirichletVal(s.x[i], s.y[i], s.z[i], tNew)
			}
		}
	}
	st := s.helmholtzSolve(tn, solver.Options{Time: s.instr.scalarCG, Iters: s.instr.scalarIters})[0]
	if !st.Converged && st.FinalRes > 1e-6 {
		return st.Iterations, fmt.Errorf("ns: scalar Helmholtz solve failed (res %g)", st.FinalRes)
	}
	return st.Iterations, nil
}
