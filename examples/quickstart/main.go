// Quickstart: solve a Poisson problem with the spectral element method and
// the paper's solver stack — matrix-free tensor-product operators, CG, and
// the FDM additive-Schwarz + coarse-grid preconditioner — and watch the
// error converge exponentially in the polynomial order N.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/mesh"
	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/solver"
)

func main() {
	fmt.Println("SEM quickstart: -∇²u = f on [0,1]², u|∂Ω = 0, u_exact = sin(πx)sin(πy)")
	fmt.Printf("%4s %10s %14s %8s\n", "N", "dofs", "max error", "CG iters")
	for _, n := range []int{4, 6, 8, 10, 12} {
		spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 4, X0: 0, X1: 1, Y0: 0, Y1: 1})
		m, err := mesh.Discretize(spec, n)
		if err != nil {
			log.Fatal(err)
		}
		d := sem.New(m, m.BoundaryMask(nil))
		// Weak-form right-hand side: B f.
		b := make([]float64, m.K*m.Np)
		for i := range b {
			f := 2 * math.Pi * math.Pi * math.Sin(math.Pi*m.X[i]) * math.Sin(math.Pi*m.Y[i])
			b[i] = m.B[i] * f
		}
		d.Assemble(b)
		// Preconditioner: FDM local solves + vertex-mesh coarse grid.
		pre, err := schwarz.New(d, schwarz.Options{Method: schwarz.FDM, UseCoarse: true})
		if err != nil {
			log.Fatal(err)
		}
		x := make([]float64, len(b))
		st := solver.CG(d.Laplacian, d.Dot, x, b, solver.Options{
			Tol: 1e-12, Relative: true, MaxIter: 500, Precond: pre.Apply,
		})
		var maxErr float64
		for i := range x {
			exact := math.Sin(math.Pi*m.X[i]) * math.Sin(math.Pi*m.Y[i])
			maxErr = math.Max(maxErr, math.Abs(x[i]-exact))
		}
		fmt.Printf("%4d %10d %14.3e %8d\n", n, m.NGlobal, maxErr, st.Iterations)
	}
	fmt.Println("\nNote the spectral (exponential) convergence: each +2 in order buys")
	fmt.Println("orders of magnitude, while the Schwarz-preconditioned iteration")
	fmt.Println("count stays flat — the paper's Sec. 2 and Sec. 5 story in one table.")
}
