package main

// ops.go composes, from the layers' public functions only, what one
// pressure-CG iteration applies: E = D B̃⁻¹ Dᵀ and the preconditioner the
// solver resolved (the Schwarz sandwich J_pvᵀ M_A⁻¹ J_pv, or a Chebyshev
// polynomial over E). The stepper keeps them private; the benchmark needs
// them from outside to time them per layer in the ladder.

import (
	"math/rand"

	"repro/internal/gs"
	"repro/internal/ns"
	"repro/internal/solver"
)

type nsOps struct {
	s      *ns.Solver
	dim    int
	np     int // velocity nodes per element
	npp    int // pressure nodes per element
	p, out []float64
	g      [][]float64
	u3     [3][]float64
	rv, zv []float64
	work   []float64
}

func newNSOps(s *ns.Solver, rng *rand.Rand) *nsOps {
	m := s.M
	o := &nsOps{s: s, dim: s.Dim(), np: m.Np, npp: s.Npp()}
	n := m.K * m.Np
	o.p = randVec(rng, m.K*o.npp)
	o.out = make([]float64, m.K*o.npp)
	o.g = make([][]float64, o.dim)
	for c := range o.g {
		o.g[c] = make([]float64, n)
		o.u3[c] = o.g[c]
	}
	if o.dim == 2 {
		o.u3[2] = make([]float64, n) // Divergence never reads it in 2-D
	}
	o.rv = make([]float64, n)
	o.zv = make([]float64, n)
	o.work = make([]float64, s.InterpWorkLen())
	return o
}

// eApply is out = E p: Dᵀ, then direct stiffness summation, Dirichlet mask
// and division by the assembled mass (the B̃⁻¹ QQᵀ middle), then D — with a
// span per layer call when t is not nil.
func (o *nsOps) eApply(out, p []float64, t *track) {
	t.begin("ns/e_apply")
	t.begin("ns/gradt")
	o.s.GradientT(o.g, p)
	t.end(0)
	mask, b := o.s.VelocityMask(), o.s.BAssem()
	for c := 0; c < o.dim; c++ {
		g := o.g[c]
		t.begin("gs/apply")
		o.s.D.GS.Apply(g, gs.Sum)
		t.end(0)
		if mask != nil {
			for i, mk := range mask {
				g[i] *= mk
			}
		}
		for i := range g {
			g[i] /= b[i]
		}
	}
	t.begin("ns/div")
	o.s.Divergence(out, o.u3)
	t.end(0)
	t.end(0)
}

// sandwich is out = J_pvᵀ M_A⁻¹ J_pv r as ns.Solver composes it: prolong to
// the velocity grid, assemble, additive Schwarz (FDM local solves, plus the
// coarse solve unless local), restrict.
func (o *nsOps) sandwich(out, r []float64, local bool, t *track) {
	pre := o.s.PressurePre()
	k := o.s.M.K
	t.begin("ns/precond_sandwich")
	t.begin("ns/prolong")
	for e := 0; e < k; e++ {
		o.s.ProlongPVElem(o.rv[e*o.np:(e+1)*o.np], r[e*o.npp:(e+1)*o.npp], o.work)
	}
	t.end(0)
	t.begin("gs/apply")
	o.s.DN.GS.Apply(o.rv, gs.Sum)
	t.end(0)
	t.begin("schwarz/apply")
	if local {
		pre.ApplyLocal(o.zv, o.rv)
	} else {
		pre.Apply(o.zv, o.rv)
	}
	t.end(0)
	t.begin("ns/restrict")
	for e := 0; e < k; e++ {
		o.s.RestrictVPElem(out[e*o.npp:(e+1)*o.npp], o.zv[e*o.np:(e+1)*o.np], o.work)
	}
	t.end(0)
	t.end(0)
}

// precond returns the solver's resolved pressure preconditioner rebuilt
// from public parts (nil for "none"), and how many E applications and
// Schwarz sandwiches one CG iteration costs with it: CG itself applies E
// once; a degree-k Chebyshev variant adds k-1 more and k base sweeps, which
// for chebschwarz are coarse-free sandwiches.
func (o *nsOps) precond() (op solver.Operator, eApplies, sandwiches int) {
	apply := func(out, in []float64) { o.eApply(out, in, nil) }
	switch name := o.s.PrecondName(); name {
	case ns.PrecondSchwarz:
		return func(out, in []float64) { o.sandwich(out, in, false, nil) }, 1, 1
	case ns.PrecondChebJacobi:
		lmin, lmax, degree, _ := o.s.ChebBounds(name)
		diag := o.s.PressureDiagE()
		jacobi := func(out, in []float64) {
			for i := range in {
				out[i] = in[i] / diag[i]
			}
		}
		c := &solver.Chebyshev{A: apply, Base: jacobi, Degree: degree, LMin: lmin, LMax: lmax}
		return c.Apply, degree, 0
	case ns.PrecondChebSchwarz:
		lmin, lmax, degree, _ := o.s.ChebBounds(name)
		base := func(out, in []float64) { o.sandwich(out, in, true, nil) }
		c := &solver.Chebyshev{A: apply, Base: base, Degree: degree, LMin: lmin, LMax: lmax}
		return c.Apply, degree, degree
	}
	return nil, 1, 0
}
