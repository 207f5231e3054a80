package ns

import (
	"fmt"
	"math"

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
		cd := c[d]
		for i := range cd {
			cd[i] = 0
		}
		for q := 0; q < k; q++ {
			hq := hist[q][d]
			cq := coef[q]
			if cq == 0 {
				continue
			}
			for i := range cd {
				cd[i] += cq * hq[i]
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
// and no physical gradient. One element-parallel pass.
func (s *Solver) convect(out, v []float64, chat [3][]float64) {
	s.curOut, s.curIn, s.curC = out, v, chat
	s.mach.ForElements(s.convLoop)
	s.curOut, s.curIn, s.curC = nil, nil, [3][]float64{}
	pointwise := 2 * s.dim // dim multiplies, dim-1 adds, the sign
	s.mach.Charge(int64(s.dim)*tensor.FlopsApplyDim(s.np1, s.dim)*int64(len(s.elems)) + int64(pointwise*s.n))
}

// convectElement is convect on local element li: the reference-coordinate
// derivatives land in per-worker scratch and are combined on the spot.
func (s *Solver) convectElement(li, w int) {
	m, np := s.M, s.M.Np
	i0 := li * np
	g := &s.work[w].g
	v, out, c := s.curIn[i0:i0+np], s.curOut[i0:i0+np], s.curC
	for a := 0; a < s.dim; a++ {
		tensor.ApplyDim(g[a][:np], m.D, m.Dt, v, s.np1, s.dim, a)
	}
	c0, c1 := c[0][i0:i0+np], c[1][i0:i0+np]
	vr, vs := g[0][:np], g[1][:np]
	if s.dim == 2 {
		for l := range out {
			out[l] = -(c0[l]*vr[l] + c1[l]*vs[l])
		}
		return
	}
	c2, vt := c[2][i0:i0+np], g[2][:np]
	for l := range out {
		out[l] = -(c0[l]*vr[l] + c1[l]*vs[l] + c2[l]*vt[l])
	}
}

// toContravariant turns the advecting field c into its reference-coordinate
// components in place, chat[a] = Σ_c ∂r_a/∂x_c·c_c, over each element's
// non-zero metric pairs (mesh.RXPairs; a component's first pair writes). Done
// once per RK4 stage field, it serves every advected component and stage.
func (s *Solver) toContravariant(c [3][]float64) {
	s.curC = c
	s.mach.ForElements(s.contraLoop)
	s.curC = [3][]float64{}
	s.mach.Charge(s.contraFlops)
}

// contravariantElement is toContravariant on local element li.
func (s *Solver) contravariantElement(li, w int) {
	m, np, dim := s.M, s.M.Np, s.dim
	e := s.elems[li]
	i0, base := li*np, e*np
	g := &s.work[w].g
	for a := 0; a < dim; a++ {
		ga, first := g[a][:np], true
		for c := 0; c < dim; c++ {
			k := a*dim + c
			if m.RXPairs[e]>>k&1 == 0 {
				continue
			}
			rx, cc := m.RX[k][base:base+np], s.curC[c][i0:i0+np]
			if first {
				mulInto(ga, rx, cc)
				first = false
				continue
			}
			for l, v := range cc {
				ga[l] += rx[l] * v
			}
		}
	}
	for a := 0; a < dim; a++ {
		copy(s.curC[a][i0:i0+np], g[a])
	}
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
		for i := range tmp {
			tmp[i] = f[i] + h/2*k1[i]
		}
		s.convect(k2, tmp, c2)
		for i := range tmp {
			tmp[i] = f[i] + h/2*k2[i]
		}
		s.convect(k3, tmp, c2)
		for i := range tmp {
			tmp[i] = f[i] + h*k3[i]
		}
		s.convect(k4, tmp, c4)
		for i := range f {
			f[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
	}
	s.mach.Charge(int64(10 * s.n * len(fields)))
	s.putBuf(k1, k2, k3, k4, tmp)
	s.releaseField(c1)
	s.releaseField(c2)
	s.releaseField(c4)
}

// massAverage projects element-discontinuous fields back onto the C0 space
// by mass-weighted direct-stiffness averaging, v ← B̃⁻¹ QQᵀ (B v), with one
// direct stiffness sum for all of them.
func (s *Solver) massAverage(fields [][]float64) {
	b := s.b
	for _, v := range fields {
		for i := range v {
			v[i] *= b[i]
		}
	}
	s.mach.Assemble(fields)
	for _, v := range fields {
		for i := range v {
			v[i] /= s.bAssemL[i]
		}
	}
	s.mach.Charge(int64(3 * s.n * len(fields)))
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
	b := s.bArena[0]
	for i := range b {
		var sum float64
		for q := range tilde {
			sum += gamma[q] * tilde[q][s.dim][i]
		}
		b[i] = s.b[i] * sum / s.Cfg.Dt
	}
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
