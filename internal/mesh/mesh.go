// Package mesh builds spectral element meshes: unstructured arrays of
// deformed quadrilateral (2D) or hexahedral (3D) elements, each carrying an
// N-th order tensor-product Gauss–Lobatto–Legendre (GLL) grid (Fig. 2 of the
// paper). It computes the isoparametric geometric factors G_ij of eq. (4),
// the diagonal mass matrix, the C0 global node numbering used by the
// gather–scatter residual assembly, boundary detection, and element
// adjacency for partitioning.
package mesh

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/poly"
	"repro/internal/tensor"
)

// MapFunc maps reference coordinates (r,s,t) ∈ [-1,1]^d to physical space.
// For 2D elements t is ignored.
type MapFunc func(r, s, t float64) (x, y, z float64)

// Element is one deformed quad/hex given by its corner vertex indices (4 in
// 2D, 8 in 3D, in tensor order: r fastest, then s, then t) and an optional
// curved mapping. When Map is nil the multilinear interpolant of the corner
// vertices is used.
type Element struct {
	Verts []int
	Map   MapFunc
}

// Spec describes a mesh before discretization.
type Spec struct {
	Dim   int
	Verts [][3]float64
	Elems []Element
	// PeriodicWrap, if non-nil, maps a physical coordinate to its canonical
	// image before global numbering, implementing periodic boundaries (e.g.
	// wrap x to [0,L)). It must be exactly idempotent on canonical points.
	PeriodicWrap func(p [3]float64) [3]float64
}

// Mesh is a discretized spectral element mesh.
type Mesh struct {
	Dim int // 2 or 3
	N   int // polynomial order
	K   int // number of elements
	Np  int // nodes per element, (N+1)^Dim

	// 1D reference operators on GLL points.
	Z  []float64 // GLL points, len N+1
	Wt []float64 // GLL weights
	D  []float64 // differentiation matrix, (N+1)x(N+1)
	Dt []float64 // its transpose

	// Nodal coordinates, len K*Np each (element-major, r fastest).
	X, Y, Zc []float64

	// Geometric factors (premultiplied by quadrature weight and |J|):
	// 2D: G[0]=Grr, G[1]=Grs, G[2]=Gss;
	// 3D: G[0]=Grr, G[1]=Grs, G[2]=Grt, G[3]=Gss, G[4]=Gst, G[5]=Gtt.
	G [][]float64

	Jac []float64 // |J| at nodes (without weights)
	B   []float64 // diagonal mass: w ⊗ w (⊗ w) * |J|

	// Raw inverse-Jacobian metrics dr_a/dx_c at nodes (for physical-space
	// gradients): 2D order {rx, ry, sx, sy}; 3D order
	// {rx, ry, rz, sx, sy, sz, tx, ty, tz}.
	RX [][]float64

	// RXPairs[e] has bit a*Dim+c set when the metric RX[a*Dim+c] does not
	// vanish on element e. The diagonal bits are always set; an undeformed
	// (axis-aligned) element has no others — the Nek5000 ifdfrm flag, kept
	// per pair so that an element deformed in one direction only (a lifted
	// wall) pays for the pairs it has. Set once by Discretize.
	RXPairs []uint16

	// C0 connectivity.
	GID     []int64 // global id per local node, len K*Np
	NGlobal int     // number of distinct global nodes

	// Boundary flags per local node (true if on a non-shared element face;
	// periodic faces are interior by construction).
	OnBoundary []bool

	// Coarse (vertex) mesh: per element, the 2^Dim corner vertex ids
	// compressed to 0..NVert-1 in order of first appearance, in tensor
	// corner order (see CornerNode).
	ElemVert [][]int
	NVert    int
	VertXYZ  [][3]float64 // coordinates of the compressed vertices

	// Element adjacency across shared faces (for partitioning).
	Adj [][]int

	spec *Spec
}

// multilinear evaluates the multilinear corner interpolant.
func multilinear(dim int, corners [][3]float64, r, s, t float64) (float64, float64, float64) {
	if dim == 2 {
		n := [4]float64{
			(1 - r) * (1 - s) / 4, (1 + r) * (1 - s) / 4,
			(1 - r) * (1 + s) / 4, (1 + r) * (1 + s) / 4,
		}
		var x, y float64
		for i := 0; i < 4; i++ {
			x += n[i] * corners[i][0]
			y += n[i] * corners[i][1]
		}
		return x, y, 0
	}
	var x, y, z float64
	for i := 0; i < 8; i++ {
		fr, fs, ft := 1-r, 1-s, 1-t
		if i&1 != 0 {
			fr = 1 + r
		}
		if i&2 != 0 {
			fs = 1 + s
		}
		if i&4 != 0 {
			ft = 1 + t
		}
		w := fr * fs * ft / 8
		x += w * corners[i][0]
		y += w * corners[i][1]
		z += w * corners[i][2]
	}
	return x, y, z
}

// Discretize builds the order-N spectral element mesh from the spec.
func Discretize(spec *Spec, n int) (*Mesh, error) {
	if spec.Dim != 2 && spec.Dim != 3 {
		return nil, fmt.Errorf("mesh: dimension must be 2 or 3, got %d", spec.Dim)
	}
	if n < 2 {
		return nil, fmt.Errorf("mesh: order must be >= 2, got %d", n)
	}
	nc := 4
	if spec.Dim == 3 {
		nc = 8
	}
	for e, el := range spec.Elems {
		if len(el.Verts) != nc {
			return nil, fmt.Errorf("mesh: element %d has %d vertices, want %d", e, len(el.Verts), nc)
		}
	}
	m := &Mesh{Dim: spec.Dim, N: n, K: len(spec.Elems), spec: spec}
	np1 := n + 1
	m.Np = np1 * np1
	if m.Dim == 3 {
		m.Np *= np1
	}
	m.Z, m.Wt = poly.GaussLobatto(n)
	m.D = poly.DerivMatrix(m.Z)
	m.Dt = tensor.Transpose(m.D, np1, np1)

	m.X = make([]float64, m.K*m.Np)
	m.Y = make([]float64, m.K*m.Np)
	m.Zc = make([]float64, m.K*m.Np)
	corners := make([][3]float64, nc)
	for e, el := range spec.Elems {
		for c, vi := range el.Verts {
			corners[c] = spec.Verts[vi]
		}
		for l := 0; l < m.Np; l++ {
			r, s, t := m.Z[l%np1], m.Z[l/np1%np1], 0.0
			if m.Dim == 3 {
				t = m.Z[l/(np1*np1)]
			}
			var x, y, z float64
			if el.Map != nil {
				x, y, z = el.Map(r, s, t)
			} else {
				x, y, z = multilinear(m.Dim, corners, r, s, t)
			}
			idx := e*m.Np + l
			m.X[idx], m.Y[idx], m.Zc[idx] = x, y, z
		}
	}

	if err := m.computeMetrics(); err != nil {
		return nil, err
	}
	m.classifyElements()
	m.numberGlobally()
	m.buildTopology()
	return m, nil
}

// computeMetrics differentiates the nodal coordinate fields to obtain the
// Jacobian and the geometric factors of eq. (4).
func (m *Mesh) computeMetrics() error {
	np1 := m.N + 1
	m.Jac = make([]float64, m.K*m.Np)
	m.B = make([]float64, m.K*m.Np)
	ng := 3
	if m.Dim == 3 {
		ng = 6
	}
	m.G = make([][]float64, ng)
	for i := range m.G {
		m.G[i] = make([]float64, m.K*m.Np)
	}
	nrx := 4
	if m.Dim == 3 {
		nrx = 9
	}
	m.RX = make([][]float64, nrx)
	for i := range m.RX {
		m.RX[i] = make([]float64, m.K*m.Np)
	}
	if m.Dim == 2 {
		xr := make([]float64, m.Np)
		xs := make([]float64, m.Np)
		yr := make([]float64, m.Np)
		ys := make([]float64, m.Np)
		for e := 0; e < m.K; e++ {
			xe := m.X[e*m.Np : (e+1)*m.Np]
			ye := m.Y[e*m.Np : (e+1)*m.Np]
			tensor.ApplyR2D(xr, m.Dt, xe, np1, np1, np1)
			tensor.ApplyS2D(xs, m.D, xe, np1, np1, np1)
			tensor.ApplyR2D(yr, m.Dt, ye, np1, np1, np1)
			tensor.ApplyS2D(ys, m.D, ye, np1, np1, np1)
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					l := j*np1 + i
					jac := xr[l]*ys[l] - xs[l]*yr[l]
					if jac <= 0 {
						return fmt.Errorf("mesh: non-positive Jacobian %g in element %d", jac, e)
					}
					rx, ry := ys[l]/jac, -xs[l]/jac
					sx, sy := -yr[l]/jac, xr[l]/jac
					w := m.Wt[i] * m.Wt[j] * jac
					gi := e*m.Np + l
					m.Jac[gi] = jac
					m.B[gi] = w
					m.RX[0][gi], m.RX[1][gi] = rx, ry
					m.RX[2][gi], m.RX[3][gi] = sx, sy
					m.G[0][gi] = (rx*rx + ry*ry) * w
					m.G[1][gi] = (rx*sx + ry*sy) * w
					m.G[2][gi] = (sx*sx + sy*sy) * w
				}
			}
		}
		return nil
	}
	// 3D.
	sz := m.Np
	d := make([][]float64, 9) // xr xs xt yr ys yt zr zs zt
	for i := range d {
		d[i] = make([]float64, sz)
	}
	for e := 0; e < m.K; e++ {
		fields := [][]float64{m.X[e*sz : (e+1)*sz], m.Y[e*sz : (e+1)*sz], m.Zc[e*sz : (e+1)*sz]}
		for f, fld := range fields {
			tensor.ApplyR3D(d[3*f+0], m.Dt, fld, np1, np1, np1, np1)
			tensor.ApplyS3D(d[3*f+1], m.D, fld, np1, np1, np1, np1)
			tensor.ApplyT3D(d[3*f+2], m.D, fld, np1, np1, np1, np1)
		}
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					l := (k*np1+j)*np1 + i
					xr, xs, xt := d[0][l], d[1][l], d[2][l]
					yr, ys, yt := d[3][l], d[4][l], d[5][l]
					zr, zs, zt := d[6][l], d[7][l], d[8][l]
					jac := xr*(ys*zt-yt*zs) - xs*(yr*zt-yt*zr) + xt*(yr*zs-ys*zr)
					if jac <= 0 {
						return fmt.Errorf("mesh: non-positive Jacobian %g in element %d", jac, e)
					}
					// Inverse Jacobian (dr_a/dx_c) by cofactors.
					rx := (ys*zt - yt*zs) / jac
					ry := -(xs*zt - xt*zs) / jac
					rz := (xs*yt - xt*ys) / jac
					sx := -(yr*zt - yt*zr) / jac
					sy := (xr*zt - xt*zr) / jac
					sz3 := -(xr*yt - xt*yr) / jac
					tx := (yr*zs - ys*zr) / jac
					ty := -(xr*zs - xs*zr) / jac
					tz := (xr*ys - xs*yr) / jac
					w := m.Wt[i] * m.Wt[j] * m.Wt[k] * jac
					gi := e*sz + l
					m.Jac[gi] = jac
					m.B[gi] = w
					m.RX[0][gi], m.RX[1][gi], m.RX[2][gi] = rx, ry, rz
					m.RX[3][gi], m.RX[4][gi], m.RX[5][gi] = sx, sy, sz3
					m.RX[6][gi], m.RX[7][gi], m.RX[8][gi] = tx, ty, tz
					m.G[0][gi] = (rx*rx + ry*ry + rz*rz) * w
					m.G[1][gi] = (rx*sx + ry*sy + rz*sz3) * w
					m.G[2][gi] = (rx*tx + ry*ty + rz*tz) * w
					m.G[3][gi] = (sx*sx + sy*sy + sz3*sz3) * w
					m.G[4][gi] = (sx*tx + sy*ty + sz3*tz) * w
					m.G[5][gi] = (tx*tx + ty*ty + tz*tz) * w
				}
			}
		}
	}
	return nil
}

// rxPairTol is the size of an off-diagonal metric, relative to the element's
// smallest diagonal one, up to which classifyElements treats it as zero.
const rxPairTol = 1e-12

// classifyElements sets RXPairs from the metrics: an off-diagonal pair is
// kept when its largest |dr_a/dx_c| on the element exceeds rxPairTol times
// the element's smallest diagonal |dr_a/dx_a| (which may itself vary from
// node to node, as on a graded box, without deforming the element).
func (m *Mesh) classifyElements() {
	m.RXPairs = make([]uint16, m.K)
	off := make([]float64, len(m.RX))
	for e := range m.RXPairs {
		diag := math.Inf(1)
		for k, rx := range m.RX {
			off[k] = 0
			for _, v := range rx[e*m.Np : (e+1)*m.Np] {
				if k/m.Dim == k%m.Dim {
					diag = math.Min(diag, math.Abs(v))
				} else {
					off[k] = math.Max(off[k], math.Abs(v))
				}
			}
		}
		for k := range m.RX {
			if k/m.Dim == k%m.Dim || off[k] > rxPairTol*diag {
				m.RXPairs[e] |= 1 << k
			}
		}
	}
}

// numberGlobally assigns global ids to the local GLL nodes by geometric
// hashing of (periodically wrapped) nodal coordinates: coincident nodes of
// adjacent elements receive the same id, enforcing C0 continuity.
func (m *Mesh) numberGlobally() {
	type key struct{ a, b, c int64 }
	// Scale-aware tolerance.
	var scale float64
	for i := range m.X {
		scale = math.Max(scale, math.Abs(m.X[i]))
		scale = math.Max(scale, math.Abs(m.Y[i]))
		scale = math.Max(scale, math.Abs(m.Zc[i]))
	}
	if scale == 0 {
		scale = 1
	}
	tol := scale * 1e-8
	inv := 1 / tol
	bins := make(map[key][]int32) // bin -> global ids in bin
	coords := make([][3]float64, 0, len(m.X)/2)
	m.GID = make([]int64, m.K*m.Np)
	wrap := m.spec.PeriodicWrap
	for li := range m.GID {
		p := [3]float64{m.X[li], m.Y[li], m.Zc[li]}
		if wrap != nil {
			p = wrap(p)
		}
		qa := int64(math.Floor(p[0] * inv))
		qb := int64(math.Floor(p[1] * inv))
		qc := int64(math.Floor(p[2] * inv))
		found := int32(-1)
		const r = 1
	search:
		for da := int64(-r); da <= r; da++ {
			for db := int64(-r); db <= r; db++ {
				for dc := int64(-r); dc <= r; dc++ {
					for _, gid := range bins[key{qa + da, qb + db, qc + dc}] {
						q := coords[gid]
						if math.Abs(q[0]-p[0]) < tol && math.Abs(q[1]-p[1]) < tol && math.Abs(q[2]-p[2]) < tol {
							found = gid
							break search
						}
					}
				}
			}
		}
		if found < 0 {
			found = int32(len(coords))
			coords = append(coords, p)
			k := key{qa, qb, qc}
			bins[k] = append(bins[k], found)
		}
		m.GID[li] = int64(found)
	}
	m.NGlobal = len(coords)
}

// ElemCorner returns the physical coordinates of corner c of element e as
// seen by that element (NOT the canonical wrapped vertex position — the two
// differ across periodic boundaries).
func (m *Mesh) ElemCorner(e, c int) [3]float64 {
	li := m.CornerNode(e, c)
	return [3]float64{m.X[li], m.Y[li], m.Zc[li]}
}

// CornerNode returns the index in the element-major node arrays of corner c
// of element e, in tensor corner order: bit a of c set puts the corner on the
// +1 side of direction a (r, s, t).
func (m *Mesh) CornerNode(e, c int) int {
	l := 0
	for a, stride := 0, 1; a < m.Dim; a, stride = a+1, stride*(m.N+1) {
		l += (c >> a & 1) * m.N * stride
	}
	return e*m.Np + l
}

// buildTopology compresses the corner global ids into the vertex (coarse)
// mesh and matches every element face once. Face f = 2a+side of an element
// lies in direction a at reference coordinate −1 (side 0) or +1 (side 1); its
// corners are the corners c with bit a equal to side, and its key is their
// sorted vertex ids. A key held by exactly two faces of different elements
// makes them adjacent; every node of a face whose key no other face holds is
// on the boundary (periodic faces are shared through the wrapped numbering,
// hence interior).
func (m *Mesh) buildTopology() {
	nc, nf, np1 := 1<<m.Dim, 2*m.Dim, m.N+1
	stride := [3]int{1, np1, np1 * np1}
	vert := make([]int, m.NGlobal)
	for i := range vert {
		vert[i] = -1
	}
	m.ElemVert = make([][]int, m.K)
	for e := range m.ElemVert {
		m.ElemVert[e] = make([]int, nc)
		for c := range m.ElemVert[e] {
			li := m.CornerNode(e, c)
			g := m.GID[li]
			if vert[g] < 0 {
				vert[g] = len(m.VertXYZ)
				m.VertXYZ = append(m.VertXYZ, [3]float64{m.X[li], m.Y[li], m.Zc[li]})
			}
			m.ElemVert[e][c] = vert[g]
		}
	}
	m.NVert = len(m.VertXYZ)

	keys := make([][4]int, m.K*nf)
	faces := make(map[[4]int][]int, len(keys)) // key -> element faces e*nf+f
	for ef := range keys {
		e, a, side := ef/nf, ef%nf/2, ef%2
		k := [4]int{-1, -1, -1, -1}
		ids := k[:0]
		for c, v := range m.ElemVert[e] {
			if c>>a&1 == side {
				ids = append(ids, v)
			}
		}
		slices.Sort(ids)
		keys[ef] = k
		faces[k] = append(faces[k], ef)
	}
	m.Adj = make([][]int, m.K)
	m.OnBoundary = make([]bool, m.K*m.Np)
	for ef, k := range keys {
		e, a, side := ef/nf, ef%nf/2, ef%2
		switch sh := faces[k]; {
		case len(sh) == 2 && sh[0]/nf != sh[1]/nf:
			m.Adj[e] = append(m.Adj[e], (sh[0]+sh[1]-ef)/nf)
		case len(sh) == 1:
			for l := 0; l < m.Np; l++ {
				if l/stride[a]%np1 == side*m.N {
					m.OnBoundary[e*m.Np+l] = true
				}
			}
		}
	}
	// Sorted neighbour lists, repeats kept: a pair of elements matched on
	// two faces is listed twice.
	for _, nb := range m.Adj {
		slices.Sort(nb)
	}
}

// BoundaryMask returns a per-local-node multiplicative mask that is 0 on
// boundary nodes where pred(x,y,z) is true and 1 elsewhere — the standard
// way homogeneous Dirichlet conditions enter the matrix-free solvers. A nil
// pred selects the whole boundary.
func (m *Mesh) BoundaryMask(pred func(x, y, z float64) bool) []float64 {
	mask := make([]float64, m.K*m.Np)
	for i := range mask {
		mask[i] = 1
		if m.OnBoundary[i] && (pred == nil || pred(m.X[i], m.Y[i], m.Zc[i])) {
			mask[i] = 0
		}
	}
	// A global node flagged by any of its local copies must be masked in
	// all copies, or the gather-scatter would resurrect it.
	masked := make([]bool, m.NGlobal)
	for i, v := range mask {
		if v == 0 {
			masked[m.GID[i]] = true
		}
	}
	for i := range mask {
		if masked[m.GID[i]] {
			mask[i] = 0
		}
	}
	return mask
}

// MinSpacing returns the minimum nodal spacing of the mesh, the length scale
// for CFL-limited explicit substeps.
func (m *Mesh) MinSpacing() float64 {
	np1 := m.N + 1
	h := math.Inf(1)
	for e := 0; e < m.K; e++ {
		base := e * m.Np
		for l := 0; l < m.Np; l++ {
			li := l % np1
			if li+1 < np1 {
				dx := m.X[base+l+1] - m.X[base+l]
				dy := m.Y[base+l+1] - m.Y[base+l]
				dz := m.Zc[base+l+1] - m.Zc[base+l]
				d := math.Sqrt(dx*dx + dy*dy + dz*dz)
				if d > 0 && d < h {
					h = d
				}
			}
		}
	}
	return h
}
