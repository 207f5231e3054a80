package mesh

import (
	"fmt"
	"math"
)

// Grading maps a uniform partition parameter in [0,1] to a graded one; nil
// means uniform. GeomGrading returns a geometric-stretching grading with the
// given ratio between the last and first interval.
func GeomGrading(ratio float64) func(float64) float64 {
	if ratio == 1 {
		return nil
	}
	return func(t float64) float64 {
		// Geometric distribution: cell i has width ∝ q^i with q = ratio^(1/...)
		// Continuous form: (q^t - 1)/(q - 1) with q chosen so the derivative
		// ratio between t=1 and t=0 equals `ratio`.
		q := ratio
		return (math.Pow(q, t) - 1) / (q - 1)
	}
}

// Box2DSpec describes a structured quadrilateral box mesh.
type Box2DSpec struct {
	Nx, Ny         int
	X0, X1, Y0, Y1 float64
	PeriodicX      bool
	PeriodicY      bool
}

// Box2D builds the mesh spec for a structured 2D box.
func Box2D(s Box2DSpec) *Spec {
	xs := partition(s.Nx, s.X0, s.X1, nil)
	ys := partition(s.Ny, s.Y0, s.Y1, nil)
	nvx, nvy := s.Nx+1, s.Ny+1
	spec := &Spec{Dim: 2}
	vid := func(ix, iy int) int {
		if s.PeriodicX && ix == s.Nx {
			ix = 0
		}
		if s.PeriodicY && iy == s.Ny {
			iy = 0
		}
		return iy*nvx + ix
	}
	spec.Verts = make([][3]float64, nvx*nvy)
	for iy := 0; iy < nvy; iy++ {
		for ix := 0; ix < nvx; ix++ {
			spec.Verts[iy*nvx+ix] = [3]float64{xs[ix], ys[iy], 0}
		}
	}
	for iy := 0; iy < s.Ny; iy++ {
		for ix := 0; ix < s.Nx; ix++ {
			x0, x1 := xs[ix], xs[ix+1]
			y0, y1 := ys[iy], ys[iy+1]
			el := Element{Verts: []int{vid(ix, iy), vid(ix+1, iy), vid(ix, iy+1), vid(ix+1, iy+1)}}
			// Explicit affine map keeps shared-edge coordinates bitwise
			// consistent between neighbours.
			el.Map = func(r, sc, _ float64) (float64, float64, float64) {
				return x0 + (x1-x0)*(r+1)/2, y0 + (y1-y0)*(sc+1)/2, 0
			}
			spec.Elems = append(spec.Elems, el)
		}
	}
	if s.PeriodicX || s.PeriodicY {
		lx, ly := s.X1-s.X0, s.Y1-s.Y0
		epsx, epsy := lx*1e-9, ly*1e-9
		spec.PeriodicWrap = func(p [3]float64) [3]float64 {
			if s.PeriodicX && math.Abs(p[0]-s.X1) < epsx {
				p[0] = s.X0
			}
			if s.PeriodicY && math.Abs(p[1]-s.Y1) < epsy {
				p[1] = s.Y0
			}
			return p
		}
	}
	return spec
}

// Box3DSpec describes a structured hexahedral box mesh, with an optional
// smooth coordinate deformation applied to every element mapping (shared
// faces stay conforming because the deformation is a function of the
// undeformed coordinates).
type Box3DSpec struct {
	Nx, Ny, Nz             int
	X0, X1, Y0, Y1, Z0, Z1 float64
	GradeZ                 func(float64) float64 // optional grading of the z partition
	Deform                 func(x, y, z float64) (float64, float64, float64)
}

// Box3D builds the mesh spec for a structured 3D box.
func Box3D(s Box3DSpec) *Spec {
	xs := partition(s.Nx, s.X0, s.X1, nil)
	ys := partition(s.Ny, s.Y0, s.Y1, nil)
	zs := partition(s.Nz, s.Z0, s.Z1, s.GradeZ)
	nvx, nvy, nvz := s.Nx+1, s.Ny+1, s.Nz+1
	spec := &Spec{Dim: 3}
	vid := func(ix, iy, iz int) int { return (iz*nvy+iy)*nvx + ix }
	spec.Verts = make([][3]float64, nvx*nvy*nvz)
	for iz := 0; iz < nvz; iz++ {
		for iy := 0; iy < nvy; iy++ {
			for ix := 0; ix < nvx; ix++ {
				x, y, z := xs[ix], ys[iy], zs[iz]
				if s.Deform != nil {
					x, y, z = s.Deform(x, y, z)
				}
				spec.Verts[(iz*nvy+iy)*nvx+ix] = [3]float64{x, y, z}
			}
		}
	}
	for iz := 0; iz < s.Nz; iz++ {
		for iy := 0; iy < s.Ny; iy++ {
			for ix := 0; ix < s.Nx; ix++ {
				x0, x1 := xs[ix], xs[ix+1]
				y0, y1 := ys[iy], ys[iy+1]
				z0, z1 := zs[iz], zs[iz+1]
				el := Element{Verts: []int{
					vid(ix, iy, iz), vid(ix+1, iy, iz), vid(ix, iy+1, iz), vid(ix+1, iy+1, iz),
					vid(ix, iy, iz+1), vid(ix+1, iy, iz+1), vid(ix, iy+1, iz+1), vid(ix+1, iy+1, iz+1),
				}}
				el.Map = func(r, sc, t float64) (float64, float64, float64) {
					x := x0 + (x1-x0)*(r+1)/2
					y := y0 + (y1-y0)*(sc+1)/2
					z := z0 + (z1-z0)*(t+1)/2
					if s.Deform != nil {
						return s.Deform(x, y, z)
					}
					return x, y, z
				}
				spec.Elems = append(spec.Elems, el)
			}
		}
	}
	return spec
}

func partition(n int, a, b float64, grade func(float64) float64) []float64 {
	xs := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		if grade != nil {
			t = grade(t)
		}
		xs[i] = a + (b-a)*t
	}
	xs[0], xs[n] = a, b
	return xs
}

// QuadRefine splits every element of a 2D spec into four children (one round
// of the quad-refinement used to build the Table 2 mesh family). Curved
// parents produce curved children via composition with the parent mapping.
func QuadRefine(spec *Spec) (*Spec, error) {
	if spec.Dim != 2 {
		return nil, fmt.Errorf("mesh: QuadRefine requires a 2D spec")
	}
	out := &Spec{Dim: 2, PeriodicWrap: spec.PeriodicWrap}
	vcache := make(map[[2]int64]int)
	addVert := func(x, y float64) int {
		key := [2]int64{int64(math.Round(x * 1e10)), int64(math.Round(y * 1e10))}
		if id, ok := vcache[key]; ok {
			return id
		}
		id := len(out.Verts)
		out.Verts = append(out.Verts, [3]float64{x, y, 0})
		vcache[key] = id
		return id
	}
	for _, el := range spec.Elems {
		parentMap := el.Map
		if parentMap == nil {
			corners := make([][3]float64, 4)
			for c, vi := range el.Verts {
				corners[c] = spec.Verts[vi]
			}
			parentMap = func(r, s, _ float64) (float64, float64, float64) {
				return multilinear(2, corners, r, s, 0)
			}
		}
		for b := 0; b < 2; b++ {
			for a := 0; a < 2; a++ {
				fa, fb := float64(a), float64(b)
				// Child (a,b) covers the parent reference sub-square
				// [fa-1, fa] x [fb-1, fb].
				cm := func(r, s, _ float64) (float64, float64, float64) {
					rp := (r + 2*fa - 1) / 2
					sp := (s + 2*fb - 1) / 2
					return parentMap(rp, sp, 0)
				}
				vs := make([]int, 4)
				cidx := 0
				for sc := 0; sc < 2; sc++ {
					for rc := 0; rc < 2; rc++ {
						r := float64(2*rc - 1)
						s := float64(2*sc - 1)
						x, y, _ := cm(r, s, 0)
						vs[cidx] = addVert(x, y)
						cidx++
					}
				}
				out.Elems = append(out.Elems, Element{Verts: vs, Map: cm})
			}
		}
	}
	return out, nil
}
