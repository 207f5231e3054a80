package repro_test

// convergence_test.go holds rates against exact solutions, beside the
// goldens: a golden pins whatever the code computes, a rate says whether it
// computes the right thing.

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/schwarz"
	"repro/internal/sem"
	"repro/internal/solver"
)

// TestPoissonConvergesSpectrally: -∇²u = f on the unit square, u = 0 on its
// boundary, u = sin(πx)·sin(πy), on 4 × 4 elements, solved by CG under the
// FDM Schwarz preconditioner with its coarse grid. Each step of 2 in the
// order N cuts the max-norm error by at least 10× (6.1e-7, 2.4e-10, 7.2e-14
// at N = 4, 6, 8) until it reaches the rounding floor, and stays there (near
// 4e-15 at N = 10 and 12), in at most 40 preconditioned iterations (10 at
// N = 4, 31 at N = 12).
func TestPoissonConvergesSpectrally(t *testing.T) {
	const floor = 1e-13
	var prev float64
	for i, n := range []int{4, 6, 8, 10, 12} {
		m, err := mesh.Discretize(mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 4, X0: 0, X1: 1, Y0: 0, Y1: 1}), n)
		if err != nil {
			t.Fatal(err)
		}
		d := sem.New(m, m.BoundaryMask(nil))
		exact := func(i int) float64 { return math.Sin(math.Pi*m.X[i]) * math.Sin(math.Pi*m.Y[i]) }
		b := make([]float64, m.K*m.Np) // the weak form's right-hand side, B f
		for i := range b {
			b[i] = m.B[i] * 2 * math.Pi * math.Pi * exact(i)
		}
		d.Assemble(b)
		pre, err := schwarz.New(d, schwarz.Options{Method: schwarz.FDM, UseCoarse: true})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, len(b))
		st := solver.CG(d.Laplacian, d.Dot, x, b, solver.Options{
			Tol: 1e-12, Relative: true, MaxIter: 500, Precond: pre.Apply,
		})
		var maxErr float64
		for i := range x {
			maxErr = math.Max(maxErr, math.Abs(x[i]-exact(i)))
		}
		t.Logf("N = %2d: max error %.2e, %d CG iterations", n, maxErr, st.Iterations)
		if !st.Converged || st.Iterations > 40 {
			t.Errorf("N = %d: converged %v in %d iterations, want at most 40", n, st.Converged, st.Iterations)
		}
		switch {
		case i > 0 && prev > floor && maxErr > prev/10:
			t.Errorf("N = %d: max error %.2e, want at most a tenth of N = %d's %.2e", n, maxErr, n-2, prev)
		case i > 0 && prev <= floor && maxErr > floor:
			t.Errorf("N = %d: max error %.2e left the rounding floor %.0e", n, maxErr, floor)
		}
		prev = maxErr
	}
	if prev > floor {
		t.Errorf("max error %.2e at the highest order, want it at the rounding floor %.0e", prev, floor)
	}
}
