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

	// Coarse (vertex) mesh: per element, the Dim^2... 2^Dim corner vertex
	// ids compressed to 0..NVert-1, in tensor corner order.
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
		base := e * m.Np
		if m.Dim == 2 {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					idx := base + j*np1 + i
					var x, y, z float64
					if el.Map != nil {
						x, y, z = el.Map(m.Z[i], m.Z[j], 0)
					} else {
						x, y, z = multilinear(2, corners, m.Z[i], m.Z[j], 0)
					}
					m.X[idx], m.Y[idx], m.Zc[idx] = x, y, z
				}
			}
		} else {
			for k := 0; k < np1; k++ {
				for j := 0; j < np1; j++ {
					for i := 0; i < np1; i++ {
						idx := base + (k*np1+j)*np1 + i
						var x, y, z float64
						if el.Map != nil {
							x, y, z = el.Map(m.Z[i], m.Z[j], m.Z[k])
						} else {
							x, y, z = multilinear(3, corners, m.Z[i], m.Z[j], m.Z[k])
						}
						m.X[idx], m.Y[idx], m.Zc[idx] = x, y, z
					}
				}
			}
		}
	}

	if err := m.computeMetrics(); err != nil {
		return nil, err
	}
	m.classifyElements()
	m.numberGlobally()
	m.buildCoarseAndAdjacency()
	m.detectBoundary()
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
	li := e*m.Np + m.cornerLocal(c)
	return [3]float64{m.X[li], m.Y[li], m.Zc[li]}
}

// cornerLocal returns the local node index of corner c (tensor corner order)
// in an element.
func (m *Mesh) cornerLocal(c int) int {
	np1 := m.N + 1
	i, j, k := 0, 0, 0
	if c&1 != 0 {
		i = m.N
	}
	if c&2 != 0 {
		j = m.N
	}
	if c&4 != 0 {
		k = m.N
	}
	if m.Dim == 2 {
		return j*np1 + i
	}
	return (k*np1+j)*np1 + i
}

// buildCoarseAndAdjacency compresses corner-node global ids into the vertex
// (coarse) mesh and derives element adjacency from shared faces.
func (m *Mesh) buildCoarseAndAdjacency() {
	nc := 4
	if m.Dim == 3 {
		nc = 8
	}
	vmap := make(map[int64]int)
	m.ElemVert = make([][]int, m.K)
	for e := 0; e < m.K; e++ {
		vs := make([]int, nc)
		for c := 0; c < nc; c++ {
			li := e*m.Np + m.cornerLocal(c)
			gid := m.GID[li]
			v, ok := vmap[gid]
			if !ok {
				v = len(vmap)
				vmap[gid] = v
				m.VertXYZ = append(m.VertXYZ, [3]float64{m.X[li], m.Y[li], m.Zc[li]})
			}
			vs[c] = v
		}
		m.ElemVert[e] = vs
	}
	m.NVert = len(vmap)

	// Faces keyed by sorted corner vertex ids.
	faceCorners := m.faceCornerSets()
	type faceKey [4]int
	faces := make(map[faceKey][]int)
	for e := 0; e < m.K; e++ {
		for _, fc := range faceCorners {
			var k faceKey
			for i := range k {
				k[i] = -1
			}
			ids := make([]int, len(fc))
			for i, c := range fc {
				ids[i] = m.ElemVert[e][c]
			}
			sortInts(ids)
			copy(k[:], ids)
			faces[k] = append(faces[k], e)
		}
	}
	m.Adj = make([][]int, m.K)
	for _, es := range faces {
		if len(es) == 2 && es[0] != es[1] {
			m.Adj[es[0]] = append(m.Adj[es[0]], es[1])
			m.Adj[es[1]] = append(m.Adj[es[1]], es[0])
		}
	}
	// The faces map iterates in random order; canonicalize the neighbour
	// lists so everything downstream of Adj (spectral bisection above all)
	// is bitwise reproducible across runs.
	for e := range m.Adj {
		sortInts(m.Adj[e])
	}
}

// faceCornerSets lists, per element face, the corner indices (tensor corner
// order) of that face: 4 edges in 2D, 6 faces in 3D.
func (m *Mesh) faceCornerSets() [][]int {
	if m.Dim == 2 {
		return [][]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}}
	}
	return [][]int{
		{0, 1, 2, 3}, {4, 5, 6, 7}, // t = ∓1
		{0, 1, 4, 5}, {2, 3, 6, 7}, // s = ∓1
		{0, 2, 4, 6}, {1, 3, 5, 7}, // r = ∓1
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// detectBoundary marks every node lying on an element face that is not
// shared with another element (periodic faces are shared via the wrapped
// numbering, hence interior).
func (m *Mesh) detectBoundary() {
	m.OnBoundary = make([]bool, m.K*m.Np)
	// Build face multiplicity using sorted corner-gid keys.
	faceCorners := m.faceCornerSets()
	type faceKey [4]int64
	count := make(map[faceKey]int)
	keyOf := func(e, f int) faceKey {
		fc := faceCorners[f]
		var ids []int64
		for _, c := range fc {
			ids = append(ids, m.GID[e*m.Np+m.cornerLocal(c)])
		}
		// insertion sort
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		var k faceKey
		for i := range k {
			k[i] = -1
		}
		copy(k[:], ids)
		return k
	}
	for e := 0; e < m.K; e++ {
		for f := range faceCorners {
			count[keyOf(e, f)]++
		}
	}
	np1 := m.N + 1
	for e := 0; e < m.K; e++ {
		for f := range faceCorners {
			if count[keyOf(e, f)] != 1 {
				continue
			}
			// Mark all nodes on face f of element e.
			for _, l := range m.faceNodes(f) {
				m.OnBoundary[e*m.Np+l] = true
			}
			_ = np1
		}
	}
}

// faceNodes returns the local node indices of face f (same ordering as
// faceCornerSets).
func (m *Mesh) faceNodes(f int) []int {
	np1 := m.N + 1
	var out []int
	if m.Dim == 2 {
		switch f {
		case 0: // s = -1
			for i := 0; i < np1; i++ {
				out = append(out, i)
			}
		case 1: // s = +1
			for i := 0; i < np1; i++ {
				out = append(out, m.N*np1+i)
			}
		case 2: // r = -1
			for j := 0; j < np1; j++ {
				out = append(out, j*np1)
			}
		case 3: // r = +1
			for j := 0; j < np1; j++ {
				out = append(out, j*np1+m.N)
			}
		}
		return out
	}
	idx := func(i, j, k int) int { return (k*np1+j)*np1 + i }
	switch f {
	case 0: // t = -1
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				out = append(out, idx(i, j, 0))
			}
		}
	case 1: // t = +1
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				out = append(out, idx(i, j, m.N))
			}
		}
	case 2: // s = -1
		for k := 0; k < np1; k++ {
			for i := 0; i < np1; i++ {
				out = append(out, idx(i, 0, k))
			}
		}
	case 3: // s = +1
		for k := 0; k < np1; k++ {
			for i := 0; i < np1; i++ {
				out = append(out, idx(i, m.N, k))
			}
		}
	case 4: // r = -1
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				out = append(out, idx(0, j, k))
			}
		}
	case 5: // r = +1
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				out = append(out, idx(m.N, j, k))
			}
		}
	}
	return out
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
	masked := make(map[int64]bool)
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
