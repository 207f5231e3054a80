package schwarz

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/sem"
)

// With one Gauss point per direction a neighbour has no second point to put
// the Dirichlet condition on: set-up must say so, not index out of range.
func TestPressureRejectsOneGaussPoint(t *testing.T) {
	for _, spec := range []*mesh.Spec{
		mesh.Box2D(mesh.Box2DSpec{Nx: 2, Ny: 2, X1: 1, Y1: 1, PeriodicX: true}),
		mesh.Box3D(mesh.Box3DSpec{Nx: 2, Ny: 1, Nz: 1, X1: 1, Y1: 1, Z1: 1}),
	} {
		m, err := mesh.Discretize(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPressure(sem.New(m, nil)); err == nil {
			t.Errorf("dim %d: NewPressure accepted N = 2", m.Dim)
		}
	}
}

// The 1-D subdomain operator: symmetric; a side with a neighbour couples its
// border unknown to the Dirichlet point beyond it (positive row sum there,
// zero on every other row), a side without one leaves the border a unit row
// and the own points with the natural condition (zero row sums).
func TestPressure1DBoundaryTreatment(t *testing.T) {
	zp, _ := poly.Gauss(5)
	n := len(zp) + 2
	rowSum := func(a []float64, i int) float64 {
		var s float64
		for j := 0; j < n; j++ {
			s += a[i*n+j]
		}
		return s
	}
	for _, tc := range []struct{ lo, hi float64 }{{0.5, 2}, {0, 2}, {0.5, 0}, {0, 0}} {
		a, b := pressure1D(zp, 1, tc.lo, tc.hi)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if a[i*n+j] != a[j*n+i] {
					t.Fatalf("lo=%g hi=%g: stiffness not symmetric at (%d,%d)", tc.lo, tc.hi, i, j)
				}
			}
			if !(b[i*n+i] > 0) {
				t.Errorf("lo=%g hi=%g: mass[%d] = %g", tc.lo, tc.hi, i, b[i*n+i])
			}
		}
		for i, nbr := range map[int]float64{0: tc.lo, n - 1: tc.hi} {
			s := rowSum(a, i)
			if nbr > 0 && !(s > 0) {
				t.Errorf("lo=%g hi=%g: border %d has row sum %g, want the Dirichlet coupling", tc.lo, tc.hi, i, s)
			}
			if nbr == 0 && (a[i*n+i] != 1 || s != 1) {
				t.Errorf("lo=%g hi=%g: border %d is not a unit row", tc.lo, tc.hi, i)
			}
		}
		for i := 1; i < n-1; i++ {
			if s := rowSum(a, i); math.Abs(s) > 1e-12*a[i*n+i] {
				t.Errorf("lo=%g hi=%g: own row %d sums to %g", tc.lo, tc.hi, i, s)
			}
		}
	}
}
