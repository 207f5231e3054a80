package mesh

import (
	"fmt"
	"slices"
	"testing"
)

// oracleFace is one element face found by brute force: the sorted global ids
// of its interior nodes (those on no edge of the face) and its nodes, both
// enumerated by explicit (i, j, k) loops. Two faces are one face when their
// interior id sets agree; corner ids cannot tell them apart when a periodic
// direction is two elements long, where both ends of an element have one
// corner set.
type oracleFace struct {
	e        int
	interior []int64
	nodes    []int
}

// oracleFaces lists the faces of every element: for each direction a and
// each end of it, the nodes whose a-th index is 0 or N.
func oracleFaces(m *Mesh) []oracleFace {
	np1 := m.N + 1
	nk := 1
	if m.Dim == 3 {
		nk = np1
	}
	var out []oracleFace
	for e := 0; e < m.K; e++ {
		for a := 0; a < m.Dim; a++ {
			for _, end := range []int{0, m.N} {
				f := oracleFace{e: e}
				for k := 0; k < nk; k++ {
					for j := 0; j < np1; j++ {
						for i := 0; i < np1; i++ {
							if [3]int{i, j, k}[a] != end {
								continue
							}
							l := e*m.Np + (k*np1+j)*np1 + i
							f.nodes = append(f.nodes, l)
							ijk, onEdge := [3]int{i, j, k}, false
							for b := 0; b < m.Dim; b++ {
								onEdge = onEdge || (b != a && (ijk[b] == 0 || ijk[b] == m.N))
							}
							if !onEdge {
								f.interior = append(f.interior, m.GID[l])
							}
						}
					}
				}
				slices.Sort(f.interior)
				out = append(out, f)
			}
		}
	}
	return out
}

// checkTopology holds Adj and OnBoundary to an O(K²) pairwise comparison of
// face-interior id sets, and the corner and vertex tables to explicit loops.
func checkTopology(t *testing.T, m *Mesh, spec *Spec) {
	t.Helper()
	faces := oracleFaces(m)
	if want := m.K * 2 * m.Dim; len(faces) != want {
		t.Fatalf("oracle found %d faces, want %d", len(faces), want)
	}
	adj := make([][]int, m.K)
	onb := make([]bool, m.K*m.Np)
	for i, f := range faces {
		shared := false
		for j, g := range faces {
			if j == i || !slices.Equal(f.interior, g.interior) {
				continue
			}
			shared = true
			if g.e != f.e {
				adj[f.e] = append(adj[f.e], g.e)
			}
		}
		if !shared {
			for _, l := range f.nodes {
				onb[l] = true
			}
		}
	}
	for e := range adj {
		slices.Sort(adj[e])
		if !slices.Equal(m.Adj[e], adj[e]) {
			t.Fatalf("Adj[%d] = %v, pairwise face comparison gives %v", e, m.Adj[e], adj[e])
		}
	}
	for l, b := range onb {
		if m.OnBoundary[l] != b {
			t.Fatalf("OnBoundary[%d] (element %d, node %d) = %v, want %v", l, l/m.Np, l%m.Np, m.OnBoundary[l], b)
		}
	}

	// Corners in tensor order (r fastest), numbered in order of first
	// appearance into the vertex mesh.
	np1 := m.N + 1
	vert := map[int64]int{}
	for e := 0; e < m.K; e++ {
		c := 0
		for k := 0; k <= m.N*(m.Dim-2); k += m.N {
			for j := 0; j <= m.N; j += m.N {
				for i := 0; i <= m.N; i += m.N {
					l := e*m.Np + (k*np1+j)*np1 + i
					if got := m.CornerNode(e, c); got != l {
						t.Fatalf("CornerNode(%d, %d) = %d, want %d", e, c, got, l)
					}
					z := [3]float64{m.Z[i], m.Z[j], 0}
					if m.Dim == 3 {
						z[2] = m.Z[k]
					}
					x, y, zc := spec.Elems[e].Map(z[0], z[1], z[2])
					if p := m.ElemCorner(e, c); p != [3]float64{x, y, zc} {
						t.Fatalf("ElemCorner(%d, %d) = %v, element map at the corner gives %v", e, c, p, [3]float64{x, y, zc})
					}
					v, ok := vert[m.GID[l]]
					if !ok {
						v = len(vert)
						vert[m.GID[l]] = v
						if m.VertXYZ[v] != m.ElemCorner(e, c) {
							t.Fatalf("VertXYZ[%d] = %v, want %v", v, m.VertXYZ[v], m.ElemCorner(e, c))
						}
					}
					if m.ElemVert[e][c] != v {
						t.Fatalf("ElemVert[%d][%d] = %d, want %d", e, c, m.ElemVert[e][c], v)
					}
					c++
				}
			}
		}
	}
	if m.NVert != len(vert) || len(m.VertXYZ) != len(vert) {
		t.Fatalf("NVert = %d, len(VertXYZ) = %d, want %d", m.NVert, len(m.VertXYZ), len(vert))
	}
}

// Every mesh family, at two orders: periodic boxes, a periodic O-grid, its
// refinement, deformed and graded hexahedra. The periodic boxes come three
// and two elements long in each periodic direction: with two, distinct faces
// have one corner set, and only their interior nodes tell them apart.
func TestTopologyMatchesPairwiseOracle(t *testing.T) {
	cyl := CylinderOGrid(CylinderOGridSpec{NTheta: 8, NLayer: 2, R: 0.5, H: 2, WallRatio: 4})
	refined, err := QuadRefine(cyl)
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		name string
		spec *Spec
	}{
		{"box2d", Box2D(Box2DSpec{Nx: 3, Ny: 2, X1: 2, Y1: 1})},
		{"box2d-periodic-x", Box2D(Box2DSpec{Nx: 3, Ny: 2, X1: 2, Y1: 1, PeriodicX: true})},
		{"box2d-periodic-xy", Box2D(Box2DSpec{Nx: 3, Ny: 3, X1: 2, Y1: 1, PeriodicX: true, PeriodicY: true})},
		{"box2d-periodic-x-two", Box2D(Box2DSpec{Nx: 2, Ny: 3, X1: 2, Y1: 1, PeriodicX: true})},
		{"box2d-periodic-xy-two", Box2D(Box2DSpec{Nx: 2, Ny: 2, X1: 2, Y1: 1, PeriodicX: true, PeriodicY: true})},
		{"box3d-graded", Box3D(Box3DSpec{Nx: 3, Ny: 2, Nz: 2, X1: 1, Y1: 1, Z1: 1, GradeZ: GeomGrading(4)})},
		{"cylinder", cyl},
		{"hemisphere", HemisphereBox(HemisphereBoxSpec{Nx: 3, Ny: 2, Nz: 2, Lx: 3, Ly: 2, Lz: 1,
			Cx: 1.5, Cy: 1, Radius: 0.4, Height: 0.2, WallRatio: 3})},
		{"quadrefine", refined},
	}
	for _, s := range specs {
		for _, n := range []int{2, 5} {
			t.Run(fmt.Sprintf("%s/N=%d", s.name, n), func(t *testing.T) {
				m, err := Discretize(s.spec, n)
				if err != nil {
					t.Fatal(err)
				}
				checkTopology(t, m, s.spec)
			})
		}
	}
}
