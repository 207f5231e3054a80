package schwarz

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fdm"
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

// The vertex term's restriction (one product over every listed element) and
// prolongation (one Axpy per corner) are bit for bit the per-corner scalar
// loops they replace, on a deformed 3-D box and a 2-D box, over the whole
// mesh and over a scrambled subset of its elements such as a rank owns.
func TestCoarseVertexTermMatchesPerCornerLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, tc := range []struct {
		name string
		spec *mesh.Spec
		n    int
	}{
		{"hemisphere box (3-D, deformed)", mesh.HemisphereBox(mesh.HemisphereBoxSpec{Nx: 3, Ny: 2, Nz: 2, Lx: 3, Ly: 2, Lz: 1,
			Cx: 1.5, Cy: 1, Radius: 0.4, Height: 0.2, WallRatio: 3}), 5},
		{"box (2-D)", mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 3, X1: 2, Y1: 1, PeriodicX: true}), 6},
	} {
		m, err := mesh.Discretize(tc.spec, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPressure(sem.New(m, nil))
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, m.K)
		for e := range all {
			all[e] = e
		}
		subset := rng.Perm(m.K)[:m.K/2+1]
		for _, elems := range [][]int{all, subset} {
			r := make([]float64, len(elems)*p.npp)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			r0, want := make([]float64, m.NVert), make([]float64, m.NVert)
			for v := range r0 {
				r0[v] = rng.NormFloat64()
				want[v] = r0[v]
			}
			for li, e := range elems {
				re := r[li*p.npp : (li+1)*p.npp]
				for c, w := range p.weights {
					v := m.ElemVert[e][c]
					if p.vc.dirich[v] {
						continue
					}
					var s float64
					for l, rl := range re {
						s += w[l] * rl
					}
					want[v] += s
				}
			}
			acc := make([]float64, len(elems)<<m.Dim)
			flops := p.CoarseRestrictElems(r0, acc, r, elems)
			if wantF := int64(2 * len(elems) * len(p.weights) * p.npp); flops != wantF {
				t.Errorf("%s, %d elements: restriction charges %d flops, want %d", tc.name, len(elems), flops, wantF)
			}
			requireSameBits(t, tc.name+": restriction", r0, want)

			x0 := make([]float64, m.NVert)
			for v := range x0 {
				x0[v] = rng.NormFloat64()
			}
			out := make([]float64, len(elems)*p.npp)
			for i := range out {
				out[i] = rng.NormFloat64()
			}
			wantOut := slices.Clone(out)
			for li, e := range elems {
				oe := wantOut[li*p.npp : (li+1)*p.npp]
				for c, w := range p.weights {
					xv := x0[m.ElemVert[e][c]]
					for l := range oe {
						oe[l] += w[l] * xv
					}
				}
			}
			p.CoarseProlongElems(out, x0, elems)
			requireSameBits(t, tc.name+": prolongation", out, wantOut)
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, per-corner loop %v", what, i, got[i], want[i])
		}
	}
}

// NewPressure solves one 1-D eigenproblem per bitwise-distinct (extent, low
// neighbour, high neighbour) of an element direction, not one per element
// and direction, and each subdomain solve stays the one built from its own
// element's pairs alone, bit for bit. The meshes are the channel's and the
// hairpin box's.
func TestPressureSolvesEachDistinctAxisOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *mesh.Spec
		n    int
	}{
		{"channel", mesh.Box2D(mesh.Box2DSpec{Nx: 5, Ny: 3, X1: 2 * math.Pi, Y0: -1, Y1: 1, PeriodicX: true}), 9},
		{"hairpin", mesh.HemisphereBox(mesh.HemisphereBoxSpec{
			Nx: 6, Ny: 4, Nz: 3, Lx: 12, Ly: 6, Lz: 4, Cx: 3, Cy: 3, Radius: 1, Height: 0.8, WallRatio: 3,
		}), 5},
	} {
		m, err := mesh.Discretize(tc.spec, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPressure(sem.New(m, nil))
		if err != nil {
			t.Fatal(err)
		}
		lens := make([][3]float64, m.K)
		for e := range lens {
			lens[e] = dirLengths(p.d, e)
		}
		nbr := p.neighbourLengths(lens)
		zp, _ := poly.Gauss(m.N - 1)
		keys := map[[3]uint64]bool{}
		rng := rand.New(rand.NewSource(1))
		in := make([]float64, m.Np)
		got, want := make([]float64, m.Np), make([]float64, m.Np)
		work := make([]float64, p.LocalWorkLen())
		for e := range m.K {
			var ax [3]*fdm.Axis
			for c := range m.Dim {
				l, lo, hi := lens[e][c], nbr[e][2*c], nbr[e][2*c+1]
				keys[[3]uint64{math.Float64bits(l), math.Float64bits(lo), math.Float64bits(hi)}] = true
				a, b := pressure1D(zp, l, lo, hi)
				if ax[c], err = fdm.NewAxis(a, b, m.N+1); err != nil {
					t.Fatal(err)
				}
			}
			for i := range in {
				in[i] = rng.NormFloat64()
			}
			p.local[e].Apply(got, in, work)
			fdm.New(ax).Apply(want, in, work)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: element %d, entry %d = %v, own-pairs solver %v", tc.name, e, i, got[i], want[i])
				}
			}
		}
		if p.axes != len(keys) {
			t.Errorf("%s: %d eigenproblems solved for %d distinct axes", tc.name, p.axes, len(keys))
		}
		t.Logf("%s: %d eigenproblems for %d elements x %d directions", tc.name, p.axes, m.K, m.Dim)
	}
}
