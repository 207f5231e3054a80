package schwarz

// dist.go holds the element-subset pieces of the additive Schwarz
// preconditioner. A solver owning a subset of elements (one rank of the
// simulated machine, or the shared-memory stepper owning all of them) runs
// its FDM local solves element by element with its own scratch, and the
// coarse term is split into restrict / vertex solve / prolong so the vertex
// solve can be this package's sparse factor or the distributed XXT solver.
// Apply composes the same pieces over every element.

import (
	"fmt"

	"repro/internal/la"
)

// LocalWorkLen returns the scratch length LocalSolveElem needs (the largest
// of any element). FDM only: the FEM path needs global overlap and has no
// element-subset form, which callers find out here, at set-up.
func (p *Precond) LocalWorkLen() (int, error) {
	if p.opt.Method != FDM {
		return 0, fmt.Errorf("schwarz: element-subset local solves require the FDM method")
	}
	nw := 0
	for _, s := range p.fdm2 {
		nw = max(nw, s.WorkLen2D())
	}
	for _, s := range p.fdm3 {
		nw = max(nw, s.WorkLen3D())
	}
	return nw, nil
}

// LocalSolveElem applies the FDM local solve of (global) element e to the
// residual block r (length Np), writing the block out; work has length ≥
// LocalWorkLen. It only reads the preconditioner, so callers holding their
// own work may run concurrently.
func (p *Precond) LocalSolveElem(out, r []float64, e int, work []float64) {
	if p.fdm2 != nil {
		p.fdm2[e].Apply(out, r, work)
		return
	}
	p.fdm3[e].Apply(out, r, work)
}

// LocalSolveFlops returns the flop count of LocalSolveElem on element e.
func (p *Precond) LocalSolveFlops(e int) int64 {
	if p.fdm2 != nil {
		return p.fdm2[e].Flops()
	}
	return p.fdm3[e].Flops()
}

// CoarseOperator returns the coarse vertex-mesh operator A₀ with boundary
// conditions applied (nil unless the preconditioner was built with
// UseCoarse). Distributed solvers hand it to coarse.NewXXT.
func (p *Precond) CoarseOperator() *la.CSR { return p.coarseA }

// CoarseRestrictElems accumulates R₀ r over the listed (global) elements
// into the full vertex vector r0 (R₀ = Pᵀ W, W = diag(1/multiplicity)), with
// r in the caller's local layout (len(elems)*Np, element blocks in elems
// order). Returns the flop count.
func (p *Precond) CoarseRestrictElems(r0, r []float64, elems []int) int64 {
	d := p.d
	m := d.M
	nc := 1 << m.Dim
	var flops int64
	for li, e := range elems {
		re := r[li*m.Np : (li+1)*m.Np]
		mult := d.Mult[e*m.Np : (e+1)*m.Np]
		for c := 0; c < nc; c++ {
			v := m.ElemVert[e][c]
			if p.dirichVtx[v] {
				continue
			}
			w := p.pWeights[c][:len(re)]
			var s float64
			for l, rl := range re {
				if w[l] == 0 {
					continue
				}
				s += w[l] * rl / mult[l]
			}
			r0[v] += s
			flops += 3 * p.pWeightNNZ[c]
		}
	}
	return flops
}

// CoarseSolve solves A₀ x0 = r0 on the vertex mesh with the sparse factor
// (through its fill-reducing permutation). Returns the flop count. Uses the
// preconditioner's own buffer: not for concurrent callers.
func (p *Precond) CoarseSolve(x0, r0 []float64) int64 {
	rp, inv := p.rp, p.invPerm
	for old, v := range r0 {
		rp[inv[old]] = v
	}
	p.coarse.Solve(rp, rp)
	for old := range x0 {
		x0[old] = rp[inv[old]]
	}
	return int64(4 * p.coarse.NNZ())
}

// CoarseProlongElems adds the prolonged coarse correction P x0 into the
// local vector out over the listed (global) elements. Every local copy of a
// shared node receives the same (continuous) interpolated value, so there is
// no multiplicity weighting. Returns the flop count.
func (p *Precond) CoarseProlongElems(out, x0 []float64, elems []int) int64 {
	m := p.d.M
	nc := 1 << m.Dim
	var flops int64
	for li, e := range elems {
		oe := out[li*m.Np : (li+1)*m.Np]
		for c := 0; c < nc; c++ {
			v := m.ElemVert[e][c]
			if p.dirichVtx[v] {
				continue
			}
			xv := x0[v]
			if xv == 0 {
				continue
			}
			w := p.pWeights[c][:len(oe)]
			for l := range oe {
				oe[l] += w[l] * xv
			}
			flops += int64(2 * m.Np)
		}
	}
	return flops
}
