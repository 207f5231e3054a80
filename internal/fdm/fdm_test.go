package fdm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/la"
)

// buildSeparable2D expands B_y⊗A_x + A_y⊗B_x densely for verification.
func buildSeparable2D(ax, bx []float64, nx int, ay, by []float64, ny int) []float64 {
	n := nx * ny
	out := make([]float64, n*n)
	for j1 := 0; j1 < ny; j1++ {
		for i1 := 0; i1 < nx; i1++ {
			for j2 := 0; j2 < ny; j2++ {
				for i2 := 0; i2 < nx; i2++ {
					r := j1*nx + i1
					c := j2*nx + i2
					out[r*n+c] = by[j1*ny+j2]*ax[i1*nx+i2] + ay[j1*ny+j2]*bx[i1*nx+i2]
				}
			}
		}
	}
	return out
}

// newSolver builds the solver of the pairs (a[c], b[c]), n[c] x n[c];
// n[2] = 0 makes it 2-D.
func newSolver(t *testing.T, a, b [3][]float64, n [3]int) *Solver {
	t.Helper()
	var ax [3]*Axis
	for c := range ax {
		if n[c] == 0 {
			break
		}
		var err error
		if ax[c], err = NewAxis(a[c], b[c], n[c]); err != nil {
			t.Fatal(err)
		}
	}
	return New(ax)
}

func spdPair(t *testing.T, n int, seed int64) (a, b []float64) {
	t.Helper()
	// 1D FEM pair on a random graded grid: A SPD after Dirichlet trim.
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n+3)
	xs[0] = 0
	for i := 1; i < len(xs); i++ {
		xs[i] = xs[i-1] + 0.5 + rng.Float64()
	}
	aFull, bd := fem.Line1D(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i + 1
	}
	a = fem.Restrict(aFull, n+3, idx)
	b = make([]float64, n*n)
	for i := 0; i < n; i++ {
		b[i*n+i] = bd[idx[i]]
	}
	return a, b
}

func TestFDM2DExactInverse(t *testing.T) {
	nx, ny := 6, 5
	ax, bx := spdPair(t, nx, 1)
	ay, by := spdPair(t, ny, 2)
	s := newSolver(t, [3][]float64{ax, ay}, [3][]float64{bx, by}, [3]int{nx, ny})
	dense := buildSeparable2D(ax, bx, nx, ay, by, ny)
	n := nx * ny
	rng := rand.New(rand.NewSource(3))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	work := make([]float64, s.WorkLen())
	s.Apply(got, r, work)
	// Check A * got == r.
	check := make([]float64, n)
	la.MatVec(check, dense, got, n, n)
	for i := range r {
		if math.Abs(check[i]-r[i]) > 1e-9 {
			t.Fatalf("FDM not an exact inverse at %d: %g vs %g", i, check[i], r[i])
		}
	}
	if s.Flops() <= 0 {
		t.Error("flop count must be positive")
	}
}

func TestFDM3DExactInverse(t *testing.T) {
	nx, ny, nz := 4, 3, 5
	ax, bx := spdPair(t, nx, 4)
	ay, by := spdPair(t, ny, 5)
	az, bz := spdPair(t, nz, 6)
	s := newSolver(t, [3][]float64{ax, ay, az}, [3][]float64{bx, by, bz}, [3]int{nx, ny, nz})
	n := nx * ny * nz
	// Dense operator: Bz⊗By⊗Ax + Bz⊗Ay⊗Bx + Az⊗By⊗Bx.
	dense := make([]float64, n*n)
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for k1 := 0; k1 < nz; k1++ {
		for j1 := 0; j1 < ny; j1++ {
			for i1 := 0; i1 < nx; i1++ {
				for k2 := 0; k2 < nz; k2++ {
					for j2 := 0; j2 < ny; j2++ {
						for i2 := 0; i2 < nx; i2++ {
							v := bz[k1*nz+k2]*by[j1*ny+j2]*ax[i1*nx+i2] +
								bz[k1*nz+k2]*ay[j1*ny+j2]*bx[i1*nx+i2] +
								az[k1*nz+k2]*by[j1*ny+j2]*bx[i1*nx+i2]
							dense[idx(i1, j1, k1)*n+idx(i2, j2, k2)] = v
						}
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	work := make([]float64, s.WorkLen())
	s.Apply(got, r, work)
	check := make([]float64, n)
	la.MatVec(check, dense, got, n, n)
	for i := range r {
		if math.Abs(check[i]-r[i]) > 1e-8 {
			t.Fatalf("3D FDM not exact at %d: %g vs %g", i, check[i], r[i])
		}
	}
	if s.Flops() <= 0 {
		t.Error("flop count must be positive")
	}
}

func TestFDMNullModeClamped(t *testing.T) {
	// Pure Neumann 1D operators have a zero eigenvalue in each direction;
	// the (0,0) combination must be clamped, not inverted.
	n := 4
	xs := []float64{0, 1, 2, 3}
	a1, bd := fem.Line1D(xs)
	_ = n
	nn := len(xs)
	b1 := make([]float64, nn*nn)
	for i := 0; i < nn; i++ {
		b1[i*nn+i] = bd[i]
	}
	s := newSolver(t, [3][]float64{a1, a1}, [3][]float64{b1, b1}, [3]int{nn, nn})
	// Applying to a constant (the null mode) must not produce Inf/NaN.
	r := make([]float64, nn*nn)
	for i := range r {
		r[i] = 1
	}
	out := make([]float64, nn*nn)
	work := make([]float64, s.WorkLen())
	s.Apply(out, r, work)
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("null mode not clamped: out[%d] = %g", i, v)
		}
	}
}
