// Parallel SPMD Poisson solve on the simulated message-passing machine:
// the element mesh is partitioned by recursive spectral bisection (Sec. 6
// of the paper), each simulated rank assembles residuals with the
// distributed gather–scatter (gs_init / gs_op), and Jacobi-preconditioned
// CG runs with allreduce inner products — the same SPMD structure the
// production code used on ASCI-Red, executed on coroutine ranks with an
// α–β virtual clock.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/sem"
	"repro/internal/solver"
)

func main() {
	p := flag.Int("p", 8, "simulated ranks")
	nel := flag.Int("nel", 8, "elements per direction")
	n := flag.Int("n", 6, "polynomial order")
	flag.Parse()

	spec := mesh.Box2D(mesh.Box2DSpec{Nx: *nel, Ny: *nel, X0: 0, X1: 1, Y0: 0, Y1: 1})
	m, err := mesh.Discretize(spec, *n)
	if err != nil {
		log.Fatal(err)
	}
	mask := m.BoundaryMask(nil)

	// Partition elements with recursive spectral bisection.
	part := partition.RSB(m.Adj, *p)
	cut := partition.CutEdges(m.Adj, part)
	fmt.Printf("mesh: K=%d elements, N=%d, %d global dofs; RSB cut %d element faces on %d ranks\n",
		m.K, m.N, m.NGlobal, cut, *p)

	elems := make([][]int, *p)
	for e, q := range part {
		elems[q] = append(elems[q], e)
	}

	results := make([][]float64, *p)
	iters := make([]int, *p)
	net := comm.NewNetwork(comm.ASCIRed(*p))
	ranks := net.Run(func(r *comm.Rank) {
		mine := elems[r.ID]
		nloc := len(mine) * m.Np
		// Local views.
		gids := make([]int64, nloc)
		lmask := make([]float64, nloc)
		b := make([]float64, nloc)
		for li, e := range mine {
			for l := 0; l < m.Np; l++ {
				gi := e*m.Np + l
				gids[li*m.Np+l] = m.GID[gi]
				lmask[li*m.Np+l] = mask[gi]
				f := 2 * math.Pi * math.Pi * math.Sin(math.Pi*m.X[gi]) * math.Sin(math.Pi*m.Y[gi])
				b[li*m.Np+l] = m.B[gi] * f
			}
		}
		h := gs.ParInit(r, gids)
		d := sem.New(m, mask) // per-rank operator workspace
		mult := make([]float64, nloc)
		for i := range mult {
			mult[i] = 1
		}
		h.Apply(mult, gs.Sum)

		// One stiffness product per direction for each run of consecutive
		// elements this rank owns.
		runs := m.Runs(mine)
		scratch := make([]float64, mesh.LongestRun(runs)*d.ElemScratchLen())
		apply := func(out, in []float64) {
			for _, run := range runs {
				i0, i1 := run.L*m.Np, (run.L+run.N)*m.Np
				d.StiffnessElement(out[i0:i1], in[i0:i1], run.E, run.N, scratch)
			}
			h.Apply(out, gs.Sum)
			for i := range out {
				out[i] *= lmask[i]
			}
		}
		dot := func(u, v []float64) float64 {
			var s float64
			for i := range u {
				s += u[i] * v[i] / mult[i]
			}
			return r.AllreduceScalar(s, comm.OpSum)
		}
		// Assemble the RHS.
		h.Apply(b, gs.Sum)
		for i := range b {
			b[i] *= lmask[i]
		}
		// Jacobi diagonal: my elements' stiffness diagonals, assembled like
		// a residual, with unit Dirichlet rows.
		diag := make([]float64, nloc)
		for li, e := range mine {
			d.StiffnessDiagElement(diag[li*m.Np:(li+1)*m.Np], e)
		}
		h.Apply(diag, gs.Sum)
		for i, mk := range lmask {
			if mk == 0 {
				diag[i] = 1
			}
		}

		// Jacobi-preconditioned CG, SPMD: every inner product is an allreduce.
		x := make([]float64, nloc)
		jacobi := func(out, in []float64) {
			for i := range in {
				out[i] = in[i] / diag[i]
			}
		}
		st := solver.CG(apply, dot, x, b, solver.Options{Tol: 1e-10, Relative: true, MaxIter: 500, Precond: jacobi})
		results[r.ID] = x
		iters[r.ID] = st.Iterations
	})

	// Verify against the exact solution.
	var maxErr float64
	for q := 0; q < *p; q++ {
		for li, e := range elems[q] {
			for l := 0; l < m.Np; l++ {
				gi := e*m.Np + l
				exact := math.Sin(math.Pi*m.X[gi]) * math.Sin(math.Pi*m.Y[gi])
				maxErr = math.Max(maxErr, math.Abs(results[q][li*m.Np+l]-exact))
			}
		}
	}
	fmt.Printf("CG iterations: %d, max error vs exact solution: %.3e\n", iters[0], maxErr)
	fmt.Printf("virtual parallel time: %.3e s; total traffic: %.1f kB over %d messages\n",
		comm.MaxTime(ranks), float64(comm.TotalBytes(ranks))/1024, totalMsgs(ranks))
}

func totalMsgs(ranks []*comm.Rank) int64 {
	var n int64
	for _, r := range ranks {
		n += r.MsgsSent
	}
	return n
}
