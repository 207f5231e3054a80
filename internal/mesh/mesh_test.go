package mesh

import (
	"math"
	"math/bits"
	"reflect"
	"testing"
)

func box(t *testing.T, nx, ny, n int, perX, perY bool) *Mesh {
	t.Helper()
	spec := Box2D(Box2DSpec{Nx: nx, Ny: ny, X0: 0, X1: 2, Y0: 0, Y1: 1, PeriodicX: perX, PeriodicY: perY})
	m, err := Discretize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBox2DGlobalCount(t *testing.T) {
	nx, ny, n := 4, 3, 5
	m := box(t, nx, ny, n, false, false)
	want := (nx*n + 1) * (ny*n + 1)
	if m.NGlobal != want {
		t.Errorf("NGlobal = %d, want %d", m.NGlobal, want)
	}
	if m.K != nx*ny {
		t.Errorf("K = %d", m.K)
	}
	if m.NVert != (nx+1)*(ny+1) {
		t.Errorf("NVert = %d, want %d", m.NVert, (nx+1)*(ny+1))
	}
}

func TestBox2DPeriodicGlobalCount(t *testing.T) {
	nx, ny, n := 4, 3, 4
	m := box(t, nx, ny, n, true, false)
	want := (nx * n) * (ny*n + 1)
	if m.NGlobal != want {
		t.Errorf("periodic-x NGlobal = %d, want %d", m.NGlobal, want)
	}
	m2 := box(t, nx, ny, n, true, true)
	want2 := (nx * n) * (ny * n)
	if m2.NGlobal != want2 {
		t.Errorf("doubly periodic NGlobal = %d, want %d", m2.NGlobal, want2)
	}
	// Doubly periodic mesh has no boundary.
	for i, b := range m2.OnBoundary {
		if b {
			t.Fatalf("doubly periodic mesh has boundary node at %d", i)
		}
	}
}

func TestMassMatrixIntegratesArea(t *testing.T) {
	m := box(t, 3, 2, 6, false, false)
	var area float64
	for _, b := range m.B {
		area += b
	}
	if math.Abs(area-2.0) > 1e-12 {
		t.Errorf("total mass %g, want 2 (domain area)", area)
	}
}

func TestAffineMetrics(t *testing.T) {
	// Single [0,2]x[0,1] element: dx/dr = 1, dy/ds = 0.5; |J| = 0.5;
	// Grr = rx²·w·|J| = (1)²·w·0.5 etc.
	spec := Box2D(Box2DSpec{Nx: 1, Ny: 1, X0: 0, X1: 2, Y0: 0, Y1: 1})
	m, err := Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	np1 := m.N + 1
	for j := 0; j < np1; j++ {
		for i := 0; i < np1; i++ {
			l := j*np1 + i
			w := m.Wt[i] * m.Wt[j]
			if math.Abs(m.Jac[l]-0.5) > 1e-12 {
				t.Fatalf("Jacobian %g, want 0.5", m.Jac[l])
			}
			if math.Abs(m.G[0][l]-1*w*0.5) > 1e-12 {
				t.Fatalf("Grr wrong at %d: %g", l, m.G[0][l])
			}
			if math.Abs(m.G[1][l]) > 1e-12 {
				t.Fatalf("Grs should vanish on affine rectangle, got %g", m.G[1][l])
			}
			if math.Abs(m.G[2][l]-4*w*0.5) > 1e-12 {
				t.Fatalf("Gss wrong at %d: %g", l, m.G[2][l])
			}
		}
	}
}

func TestBoundaryDetection2D(t *testing.T) {
	m := box(t, 3, 3, 4, false, false)
	// Count distinct boundary globals: perimeter nodes = 2*(3*4)+2*(3*4) = 48.
	bset := make(map[int64]bool)
	for i, b := range m.OnBoundary {
		if b {
			bset[m.GID[i]] = true
		}
	}
	want := 4 * 3 * 4 // 4 sides * 12 intervals... perimeter of (13x13) grid = 4*12
	if len(bset) != want {
		t.Errorf("boundary globals = %d, want %d", len(bset), want)
	}
	// Boundary nodes must actually lie on the boundary.
	for i, b := range m.OnBoundary {
		if b {
			x, y := m.X[i], m.Y[i]
			on := math.Abs(x) < 1e-12 || math.Abs(x-2) < 1e-12 || math.Abs(y) < 1e-12 || math.Abs(y-1) < 1e-12
			if !on {
				t.Fatalf("interior node (%g,%g) flagged as boundary", x, y)
			}
		}
	}
}

func TestAdjacencyStructuredBox(t *testing.T) {
	m := box(t, 4, 3, 3, false, false)
	// Interior elements have 4 neighbours, corners 2, edges 3.
	degrees := map[int]int{}
	for _, a := range m.Adj {
		degrees[len(a)]++
	}
	if degrees[2] != 4 {
		t.Errorf("corner elements with 2 neighbours: %d, want 4", degrees[2])
	}
	if degrees[4] != (4-2)*(3-2) { // 2x1 interior block
		t.Errorf("interior elements: %d, want 2", degrees[4])
	}
}

func TestPeriodicAdjacencyWraps(t *testing.T) {
	m := box(t, 4, 1, 3, true, false)
	// In a periodic 4x1 strip every element has exactly 2 x-neighbours.
	for e, a := range m.Adj {
		if len(a) != 2 {
			t.Fatalf("element %d has %d neighbours, want 2", e, len(a))
		}
	}
}

func TestGIDConsistencyAcrossSharedEdges(t *testing.T) {
	m := box(t, 2, 1, 5, false, false)
	// Nodes with equal coordinates must share an id and vice versa.
	type pt struct{ x, y float64 }
	seen := make(map[int64]pt)
	for i, g := range m.GID {
		p := pt{m.X[i], m.Y[i]}
		if q, ok := seen[g]; ok {
			if math.Abs(q.x-p.x) > 1e-10 || math.Abs(q.y-p.y) > 1e-10 {
				t.Fatalf("gid %d maps to distinct points %v vs %v", g, q, p)
			}
		} else {
			seen[g] = p
		}
	}
	if len(seen) != m.NGlobal {
		t.Errorf("NGlobal inconsistent: %d vs %d", len(seen), m.NGlobal)
	}
}

func TestQuadRefine(t *testing.T) {
	spec := CylinderOGrid(CylinderOGridSpec{NTheta: 8, NLayer: 2, R: 0.5, H: 2, WallRatio: 4})
	m0, err := Discretize(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := QuadRefine(spec)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Discretize(ref, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m1.K != 4*m0.K {
		t.Errorf("refined K = %d, want %d", m1.K, 4*m0.K)
	}
	area := func(m *Mesh) float64 {
		var a float64
		for _, b := range m.B {
			a += b
		}
		return a
	}
	a0, a1 := area(m0), area(m1)
	// Both approximate the square-minus-circle area; refinement must agree
	// closely with the coarse mesh (both resolve the same curved geometry).
	want := 16 - math.Pi*0.25
	if math.Abs(a0-want) > 1e-2*want {
		t.Errorf("coarse O-grid area %g, want ≈ %g", a0, want)
	}
	if math.Abs(a1-want) > math.Abs(a0-want)+1e-9 {
		t.Errorf("refinement worsened area: %g vs %g (want %g)", a1, a0, want)
	}
}

func TestQuadRefineRejects3D(t *testing.T) {
	spec := Box3D(Box3DSpec{Nx: 1, Ny: 1, Nz: 1, X1: 1, Y1: 1, Z1: 1})
	if _, err := QuadRefine(spec); err == nil {
		t.Error("expected error refining a 3D spec")
	}
}

func TestCylinderOGridWellFormed(t *testing.T) {
	spec := CylinderOGrid(CylinderOGridSpec{NTheta: 16, NLayer: 6, R: 0.5, H: 4, WallRatio: 8})
	m, err := Discretize(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 96 {
		t.Errorf("K = %d, want 96", m.K)
	}
	// All Jacobians positive is already enforced; check boundary nodes lie
	// on either the cylinder or the square rim.
	for i, b := range m.OnBoundary {
		if !b {
			continue
		}
		r := math.Hypot(m.X[i], m.Y[i])
		onCyl := math.Abs(r-0.5) < 1e-8
		onRim := math.Abs(math.Max(math.Abs(m.X[i]), math.Abs(m.Y[i]))-4) < 1e-8
		if !onCyl && !onRim {
			t.Fatalf("boundary node at (%g,%g) not on cylinder or rim", m.X[i], m.Y[i])
		}
	}
	// High-aspect wall layers: first layer much thinner than last.
	if m.MinSpacing() > 0.05 {
		t.Errorf("wall grading looks wrong: min spacing %g", m.MinSpacing())
	}
}

func TestBox3DGlobalCount(t *testing.T) {
	spec := Box3D(Box3DSpec{Nx: 2, Ny: 2, Nz: 2, X1: 1, Y1: 1, Z1: 1})
	n := 3
	m, err := Discretize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	want := (2*n + 1) * (2*n + 1) * (2*n + 1)
	if m.NGlobal != want {
		t.Errorf("3D NGlobal = %d, want %d", m.NGlobal, want)
	}
	var vol float64
	for _, b := range m.B {
		vol += b
	}
	if math.Abs(vol-1) > 1e-12 {
		t.Errorf("3D volume %g, want 1", vol)
	}
}

func TestHemisphereBoxDeformedConforming(t *testing.T) {
	spec := HemisphereBox(HemisphereBoxSpec{
		Nx: 4, Ny: 3, Nz: 3, Lx: 8, Ly: 4, Lz: 3,
		Cx: 2, Cy: 2, Radius: 0.8, Height: 0.6, WallRatio: 3,
	})
	m, err := Discretize(spec, 4)
	if err != nil {
		t.Fatal(err) // would fail on non-positive Jacobians
	}
	// Conformity: same NGlobal as the undeformed box (deformation must not
	// split shared nodes).
	plain := Box3D(Box3DSpec{Nx: 4, Ny: 3, Nz: 3, X1: 8, Y1: 4, Z1: 3})
	mp, err := Discretize(plain, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NGlobal != mp.NGlobal {
		t.Errorf("deformed NGlobal %d != undeformed %d", m.NGlobal, mp.NGlobal)
	}
	// The bump must have lifted the floor near the centre.
	lifted := false
	for i := range m.Zc {
		if m.OnBoundary[i] && m.Zc[i] > 0.3 && m.Zc[i] < 0.7 &&
			math.Hypot(m.X[i]-2, m.Y[i]-2) < 0.5 {
			lifted = true
		}
	}
	if !lifted {
		t.Error("hemispherical bump not present on the wall")
	}
}

func TestBoundaryMask(t *testing.T) {
	m := box(t, 2, 2, 3, false, false)
	mask := m.BoundaryMask(nil)
	for i := range mask {
		if m.OnBoundary[i] && mask[i] != 0 {
			t.Fatal("boundary node not masked")
		}
		if !m.OnBoundary[i] && mask[i] != 1 {
			t.Fatal("interior node masked")
		}
	}
	// Selective mask: only x=0 wall.
	left := m.BoundaryMask(func(x, y, z float64) bool { return x < 1e-12 })
	masked := 0
	for i := range left {
		if left[i] == 0 {
			masked++
			if m.X[i] > 1e-12 {
				t.Fatal("masked node not on left wall")
			}
		}
	}
	if masked == 0 {
		t.Error("no nodes masked on left wall")
	}
}

func TestDiscretizeErrors(t *testing.T) {
	spec := Box2D(Box2DSpec{Nx: 1, Ny: 1, X1: 1, Y1: 1})
	if _, err := Discretize(spec, 1); err == nil {
		t.Error("order 1 should be rejected")
	}
	bad := &Spec{Dim: 4}
	if _, err := Discretize(bad, 4); err == nil {
		t.Error("dim 4 should be rejected")
	}
	badElem := &Spec{Dim: 2, Verts: [][3]float64{{0, 0, 0}}, Elems: []Element{{Verts: []int{0}}}}
	if _, err := Discretize(badElem, 4); err == nil {
		t.Error("wrong vertex count should be rejected")
	}
	// Inverted element: negative Jacobian must error.
	inv := &Spec{Dim: 2,
		Verts: [][3]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}},
		Elems: []Element{{Verts: []int{1, 0, 3, 2}}}, // r-axis flipped
	}
	if _, err := Discretize(inv, 3); err == nil {
		t.Error("inverted element should be rejected")
	}
}

func TestGradedPartition(t *testing.T) {
	xs := partition(4, 0, 1, GeomGrading(8))
	if xs[0] != 0 || xs[4] != 1 {
		t.Fatal("partition endpoints wrong")
	}
	first := xs[1] - xs[0]
	last := xs[4] - xs[3]
	if last/first < 2 {
		t.Errorf("grading ratio too small: %g", last/first)
	}
	// nil grading is uniform
	u := partition(4, 0, 1, nil)
	for i := 0; i <= 4; i++ {
		if math.Abs(u[i]-float64(i)/4) > 1e-15 {
			t.Fatal("uniform partition wrong")
		}
	}
}

// The metric pairs the E-apply kernels visit: boxes (graded too) have the
// Dim diagonal pairs only, the O-grid all Dim², and the hairpin box of the
// benchmark, whose bump lifts z as a function of (x, y), the diagonal plus
// dt/dx and dt/dy where the bump reaches.
func TestClassifyElements(t *testing.T) {
	pairCounts := func(spec *Spec, n int) map[int]int {
		t.Helper()
		m, err := Discretize(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for _, p := range m.RXPairs {
			counts[bits.OnesCount16(p)]++
		}
		return counts
	}
	want := func(name string, got, want map[int]int) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: elements by number of non-zero metric pairs = %v, want %v", name, got, want)
		}
	}
	box := Box3D(Box3DSpec{Nx: 3, Ny: 2, Nz: 3, X1: 2 * math.Pi, Y1: 1, Z0: -1, Z1: 1, GradeZ: GeomGrading(3)})
	want("graded 3-D box", pairCounts(box, 5), map[int]int{3: 18})
	ogrid := CylinderOGrid(CylinderOGridSpec{NTheta: 16, NLayer: 6, R: 0.5, H: 4, WallRatio: 8})
	want("O-grid", pairCounts(ogrid, 5), map[int]int{4: 96})
	hairpin := HemisphereBox(HemisphereBoxSpec{
		Nx: 6, Ny: 4, Nz: 3, Lx: 12, Ly: 6, Lz: 4,
		Cx: 3, Cy: 3, Radius: 1, Height: 0.8, WallRatio: 3,
	})
	want("hairpin box", pairCounts(hairpin, 5), map[int]int{3: 24, 5: 48})
}
