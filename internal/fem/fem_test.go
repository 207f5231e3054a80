package fem

import (
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/mesh"
)

func TestQuadStiffnessUnitSquare(t *testing.T) {
	ke := QuadStiffness([4][2]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}})
	// Known bilinear quad Laplacian: diag 2/3, edge-neighbours -1/6,
	// diagonal corner -1/3.
	want := [16]float64{
		2.0 / 3, -1.0 / 6, -1.0 / 6, -1.0 / 3,
		-1.0 / 6, 2.0 / 3, -1.0 / 3, -1.0 / 6,
		-1.0 / 6, -1.0 / 3, 2.0 / 3, -1.0 / 6,
		-1.0 / 3, -1.0 / 6, -1.0 / 6, 2.0 / 3,
	}
	for i := range ke {
		if math.Abs(ke[i]-want[i]) > 1e-12 {
			t.Fatalf("unit square quad stiffness wrong at %d: %g vs %g", i, ke[i], want[i])
		}
	}
}

func TestQuadStiffnessRowSumsZero(t *testing.T) {
	// Laplacian stiffness annihilates constants even on deformed quads.
	ke := QuadStiffness([4][2]float64{{0, 0}, {2, 0.3}, {-0.2, 1.5}, {2.5, 2}})
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += ke[i*4+j]
		}
		if math.Abs(s) > 1e-13 {
			t.Fatalf("row %d sum %g", i, s)
		}
	}
}

func TestHexStiffnessUnitCube(t *testing.T) {
	var xyz [8][3]float64
	for a := 0; a < 8; a++ {
		xyz[a] = [3]float64{float64(a & 1), float64((a >> 1) & 1), float64((a >> 2) & 1)}
	}
	ke := HexStiffness(xyz)
	// Known trilinear hex Laplacian diagonal: 1/3; row sums zero; symmetry.
	for a := 0; a < 8; a++ {
		if math.Abs(ke[a*8+a]-1.0/3) > 1e-12 {
			t.Fatalf("hex diagonal %g, want 1/3", ke[a*8+a])
		}
		var s float64
		for b := 0; b < 8; b++ {
			s += ke[a*8+b]
			if math.Abs(ke[a*8+b]-ke[b*8+a]) > 1e-13 {
				t.Fatal("hex stiffness not symmetric")
			}
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("hex row sum %g", s)
		}
	}
}

func TestLine1D(t *testing.T) {
	a, b := Line1D([]float64{0, 0.5, 1.5})
	// Stiffness: [[2,-2,0],[-2,2+2/3... h0=0.5: 1/h=2; h1=1: 1/h=1.
	want := []float64{2, -2, 0, -2, 3, -1, 0, -1, 1}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-14 {
			t.Fatalf("Line1D stiffness wrong at %d: %g", i, a[i])
		}
	}
	wantB := []float64{0.25, 0.75, 0.5}
	for i := range wantB {
		if math.Abs(b[i]-wantB[i]) > 1e-14 {
			t.Fatalf("Line1D mass wrong at %d: %g", i, b[i])
		}
	}
}

func TestRestrict(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	sub := Restrict(a, 3, []int{0, 2})
	if sub[0] != 1 || sub[1] != 3 || sub[2] != 7 || sub[3] != 9 {
		t.Fatalf("Restrict wrong: %v", sub)
	}
}

func TestAssembleGLL2DSolvesPoisson(t *testing.T) {
	// The low-order FEM Laplacian on the GLL subgrid must itself solve a
	// Poisson problem to low-order accuracy.
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 4, X1: 1, Y1: 1})
	m, err := mesh.Discretize(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := AssembleGLL2D(m)
	if a.Rows != m.NGlobal {
		t.Fatalf("size %d vs %d", a.Rows, m.NGlobal)
	}
	// Dirichlet reduction: interior nodes only.
	interior := []int{}
	isB := make([]bool, m.NGlobal)
	for i, b := range m.OnBoundary {
		if b {
			isB[m.GID[i]] = true
		}
	}
	gidX := make([]float64, m.NGlobal)
	gidY := make([]float64, m.NGlobal)
	for i, g := range m.GID {
		gidX[g], gidY[g] = m.X[i], m.Y[i]
	}
	for g := 0; g < m.NGlobal; g++ {
		if !isB[g] {
			interior = append(interior, g)
		}
	}
	ad := make([]float64, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			ad[i*a.Cols+a.Col[p]] = a.Val[p]
		}
	}
	sub := Restrict(ad, m.NGlobal, interior)
	fac, err := la.FactorCholesky(sub, len(interior))
	if err != nil {
		t.Fatal(err)
	}
	// RHS from lumped load f = 2π² sin sin: use FEM row sums of mass ≈
	// nodal quadrature; simpler: manufacture the solution u = x(1-x)y(1-y)
	// with f = 2(y(1-y) + x(1-x)).
	b := make([]float64, len(interior))
	// Lumped mass: diagonal of the FEM mass is awkward here; use the
	// Galerkin projection of f through quadrature on the SEM mass instead.
	bl := make([]float64, m.K*m.Np)
	for i := range bl {
		bl[i] = m.B[i] * 2 * (m.Y[i]*(1-m.Y[i]) + m.X[i]*(1-m.X[i]))
	}
	bg := make([]float64, m.NGlobal)
	for i, g := range m.GID {
		bg[g] += bl[i]
	}
	for k, g := range interior {
		b[k] = bg[g]
	}
	x := make([]float64, len(interior))
	fac.Solve(x, b)
	var maxErr float64
	for k, g := range interior {
		exact := gidX[g] * (1 - gidX[g]) * gidY[g] * (1 - gidY[g])
		if e := math.Abs(x[k] - exact); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-3 {
		t.Errorf("FEM Poisson error %g too large for a low-order method", maxErr)
	}
}

func TestAssembleCoarseMatchesVertexCount(t *testing.T) {
	spec := mesh.Box3D(mesh.Box3DSpec{Nx: 2, Ny: 2, Nz: 2, X1: 1, Y1: 1, Z1: 1})
	m, err := mesh.Discretize(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	a0 := AssembleCoarse(m)
	if a0.Rows != m.NVert {
		t.Fatalf("coarse size %d vs NVert %d", a0.Rows, m.NVert)
	}
	// Row sums zero (Neumann Laplacian).
	x := make([]float64, m.NVert)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.NVert)
	a0.MulVec(y, x)
	for i, v := range y {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("coarse row %d sum %g", i, v)
		}
	}
}

func TestNodeAdjacencySymmetricAndLocal(t *testing.T) {
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 2, Ny: 2, X1: 1, Y1: 1})
	m, err := mesh.Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	adj := NodeAdjacency(m)
	if len(adj) != m.NGlobal {
		t.Fatal("adjacency length wrong")
	}
	for g, ns := range adj {
		for _, nb := range ns {
			found := false
			for _, back := range adj[nb] {
				if int(back) == g {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", g, nb)
			}
		}
		if len(ns) > 8 {
			t.Fatalf("node %d has %d neighbours (max 8 on a quad grid)", g, len(ns))
		}
	}
}
