package main

import (
	"fmt"
	"time"

	"repro/internal/mesh"
	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/solver"
)

// table2 reproduces the additive-Schwarz comparison on the cylinder
// problem: pressure-like (pure Neumann) Poisson solves on the high-aspect
// O-grid at N=7, eps=1e-5, over the quad-refinement family, comparing FDM
// local solves, FEM local solves with overlap N_o ∈ {0,1,3}, and no coarse
// grid.
func table2(quick bool) error {
	rounds := 3
	if quick {
		rounds = 2
	}
	fmt.Println("Table 2: additive Schwarz for the cylinder problem, N=7, eps=1e-5")
	fmt.Printf("%6s | %5s %7s | %5s %7s | %5s %7s | %5s %7s | %5s %7s\n",
		"K", "FDM", "cpu", "No=0", "cpu", "No=1", "cpu", "No=3", "cpu", "A0=0", "cpu")

	spec := mesh.CylinderOGrid(mesh.CylinderOGridSpec{
		NTheta: 16, NLayer: 6, R: 0.5, H: 6, WallRatio: 12,
	})
	for round := 0; round < rounds; round++ {
		m, err := mesh.Discretize(spec, 7)
		if err != nil {
			return fmt.Errorf("cylinder mesh: %w", err)
		}
		d := sem.New(m, nil)
		n := m.K * m.Np
		one := make([]float64, n)
		for i := range one {
			one[i] = 1
		}
		vol := d.Integrate(one)
		deflate := func(u []float64) {
			mn := d.Integrate(u) / vol
			for i := range u {
				u[i] -= mn
			}
		}
		// Start-up-flow-like right-hand side: the divergence source of an
		// impulsively started uniform stream around the cylinder.
		b := make([]float64, n)
		for i := range b {
			b[i] = m.B[i] * m.X[i]
		}
		d.Assemble(b)
		deflate(b)
		apply := func(out, in []float64) { d.Laplacian(out, in); deflate(out) }

		var precondErr error
		solveWith := func(opt schwarz.Options) (int, float64) {
			opt.Neumann = true
			p, err := schwarz.New(d, opt)
			if err != nil {
				precondErr = fmt.Errorf("Schwarz preconditioner K=%d: %w", m.K, err)
				return -1, 0
			}
			pre := func(out, in []float64) { p.Apply(out, in); deflate(out) }
			x := make([]float64, n)
			t0 := time.Now()
			st := solver.CG(apply, d.Dot, x, b, solver.Options{
				Tol: 1e-5, Relative: true, MaxIter: 5000, Precond: pre,
			})
			return st.Iterations, time.Since(t0).Seconds()
		}
		fdmIt, fdmT := solveWith(schwarz.Options{Method: schwarz.FDM, UseCoarse: true})
		n0It, n0T := solveWith(schwarz.Options{Method: schwarz.FEM, Overlap: 0, UseCoarse: true})
		n1It, n1T := solveWith(schwarz.Options{Method: schwarz.FEM, Overlap: 1, UseCoarse: true})
		n3It, n3T := solveWith(schwarz.Options{Method: schwarz.FEM, Overlap: 3, UseCoarse: true})
		ncIt, ncT := solveWith(schwarz.Options{Method: schwarz.FDM, UseCoarse: false})
		if precondErr != nil {
			return precondErr
		}
		fmt.Printf("%6d | %5d %7.2f | %5d %7.2f | %5d %7.2f | %5d %7.2f | %5d %7.2f\n",
			m.K, fdmIt, fdmT, n0It, n0T, n1It, n1T, n3It, n3T, ncIt, ncT)
		if round < rounds-1 {
			spec, err = mesh.QuadRefine(spec)
			if err != nil {
				return fmt.Errorf("quad refinement: %w", err)
			}
		}
	}
	fmt.Println("\nExpected shape (paper): FDM iterations ~ FEM N_o=1 but cheaper per")
	fmt.Println("iteration; N_o=0 markedly worse; dropping the coarse grid costs a")
	fmt.Println("large multiple that grows under refinement.")
	return nil
}
