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

// multilinear evaluates the multilinear interpolant of the 2^dim corners at
// the reference point r.
func multilinear(dim int, corners [][3]float64, r [3]float64) [3]float64 {
	var x [3]float64
	for i := range corners {
		w := 1.0
		for a := 0; a < dim; a++ {
			if i>>a&1 != 0 {
				w *= 1 + r[a]
			} else {
				w *= 1 - r[a]
			}
		}
		w /= float64(len(corners))
		for c := 0; c < dim; c++ {
			x[c] += w * corners[i][c]
		}
	}
	return x
}

// Discretize builds the order-N spectral element mesh from the spec.
func Discretize(spec *Spec, n int) (*Mesh, error) {
	if spec.Dim != 2 && spec.Dim != 3 {
		return nil, fmt.Errorf("mesh: dimension must be 2 or 3, got %d", spec.Dim)
	}
	if n < 2 {
		return nil, fmt.Errorf("mesh: order must be >= 2, got %d", n)
	}
	nc := 1 << spec.Dim
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
			var r, x [3]float64
			for a, stride := 0, 1; a < m.Dim; a, stride = a+1, stride*np1 {
				r[a] = m.Z[l/stride%np1]
			}
			if el.Map != nil {
				x[0], x[1], x[2] = el.Map(r[0], r[1], r[2])
			} else {
				x = multilinear(m.Dim, corners, r)
			}
			idx := e*m.Np + l
			m.X[idx], m.Y[idx], m.Zc[idx] = x[0], x[1], x[2]
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
// Jacobian and the geometric factors of eq. (4): every ∂x_c/∂r_a by one
// tensor-product derivative per run of up to RunPoints grid points, then the
// inverse Jacobian by cofactors.
func (m *Mesh) computeMetrics() error {
	dim, np1, np := m.Dim, m.N+1, m.Np
	m.Jac = make([]float64, m.K*np)
	m.B = make([]float64, m.K*np)
	m.G = make([][]float64, dim*(dim+1)/2)
	for i := range m.G {
		m.G[i] = make([]float64, m.K*np)
	}
	m.RX = make([][]float64, dim*dim)
	for i := range m.RX {
		m.RX[i] = make([]float64, m.K*np)
	}
	maxRun := runElems(np)
	d := make([][]float64, dim*dim) // d[c*dim+a] = ∂x_c/∂r_a on one run of elements
	for i := range d {
		d[i] = make([]float64, min(maxRun, m.K)*np)
	}
	xyz := [3][]float64{m.X, m.Y, m.Zc}
	var inv [9]float64 // ∂r_a/∂x_c at a*dim+c
	for e0 := 0; e0 < m.K; e0 += maxRun {
		ne := min(maxRun, m.K-e0)
		for k := range d {
			tensor.ApplyDim(d[k], m.D, m.Dt, xyz[k/dim][e0*np:(e0+ne)*np], np1, dim, k%dim, ne)
		}
		for l := 0; l < ne*np; l++ {
			var jac float64
			if dim == 2 {
				xr, xs, yr, ys := d[0][l], d[1][l], d[2][l], d[3][l]
				jac = xr*ys - xs*yr
				inv = [9]float64{ys / jac, -xs / jac, -yr / jac, xr / jac}
			} else {
				xr, xs, xt := d[0][l], d[1][l], d[2][l]
				yr, ys, yt := d[3][l], d[4][l], d[5][l]
				zr, zs, zt := d[6][l], d[7][l], d[8][l]
				jac = xr*(ys*zt-yt*zs) - xs*(yr*zt-yt*zr) + xt*(yr*zs-ys*zr)
				inv = [9]float64{
					(ys*zt - yt*zs) / jac, -(xs*zt - xt*zs) / jac, (xs*yt - xt*ys) / jac,
					-(yr*zt - yt*zr) / jac, (xr*zt - xt*zr) / jac, -(xr*yt - xt*yr) / jac,
					(yr*zs - ys*zr) / jac, -(xr*zs - xs*zr) / jac, (xr*ys - xs*yr) / jac,
				}
			}
			if jac <= 0 {
				return fmt.Errorf("mesh: non-positive Jacobian %g in element %d", jac, e0+l/np)
			}
			w := 1.0
			for stride := 1; stride < np; stride *= np1 {
				w *= m.Wt[l%np/stride%np1]
			}
			w *= jac
			gi := e0*np + l
			m.Jac[gi] = jac
			m.B[gi] = w
			for k := range m.RX {
				m.RX[k][gi] = inv[k]
			}
			// G[g] for the pairs a ≤ b in row order: Σ_c ∂r_a/∂x_c ∂r_b/∂x_c · w.
			g := 0
			for a := 0; a < dim; a++ {
				for b := a; b < dim; b++ {
					s := inv[a*dim] * inv[b*dim]
					for c := 1; c < dim; c++ {
						s += inv[a*dim+c] * inv[b*dim+c]
					}
					m.G[g][gi] = s * w
					g++
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

// RunPoints caps the grid points of an element run. The kernels of a run
// apply each tensor-product direction to all its elements in one product,
// which on the channel (N = 9, 2-D) cuts the stiffness kernel's time per
// pass by ~28 % in runs of 2–8 elements but by less (~18 %) in one run of
// all 15; on the hairpin box (N = 5, 3-D) every run length measured within
// the noise of one element at a time. 1 024 points keep a run's stiffness
// scratch, 2·dim fields, at 32–48 KB: about a first-level data cache.
const RunPoints = 1024

// runElems is the most elements of np points each a run holds: RunPoints
// worth, and one at the least.
func runElems(np int) int { return max(1, RunPoints/np) }

// Run is a stretch of N consecutive elements, global ids [E, E+N), held in
// the owned blocks [L, L+N) of an element loop.
type Run struct{ L, E, N int }

// Runs splits elems, where owned block li holds global element elems[li],
// into runs: maximal stretches of consecutive global ids that share one
// RXPairs mask and hold at most RunPoints grid points (one element at the
// least).
func (m *Mesh) Runs(elems []int) []Run {
	maxRun := runElems(m.Np)
	var runs []Run
	for li, e := range elems {
		if k := len(runs) - 1; k >= 0 {
			r := &runs[k]
			if e == r.E+r.N && r.N < maxRun && m.RXPairs[e] == m.RXPairs[r.E] {
				r.N++
				continue
			}
		}
		runs = append(runs, Run{L: li, E: e, N: 1})
	}
	return runs
}

// LongestRun returns the most elements any of runs holds (0 for none).
func LongestRun(runs []Run) int {
	n := 0
	for _, r := range runs {
		n = max(n, r.N)
	}
	return n
}

// numberGlobally assigns global ids to the local GLL nodes by geometric
// hashing of (periodically wrapped) nodal coordinates: coincident nodes of
// adjacent elements receive the same id, enforcing C0 continuity. Only a node
// on its element's boundary (index 0 or N in some direction) can coincide
// with another element's node on a conforming mesh, so only those are binned
// and matched; a node inside its element takes a fresh id in the same loop
// order, which leaves every id what matching all nodes gives.
//
// A node matches an earlier one within tol in every coordinate. Bins are
// 2·tol wide, so along each axis such a match lies in the node's own bin or
// in the neighbour on the side of the half of the bin the node sits in: 2^dim
// probes, the node's own bin first. Distinct global nodes lie a GLL spacing
// apart, far more than tol, so a node matches at most one id and the probe
// order cannot change it.
func (m *Mesh) numberGlobally() {
	type node struct {
		gid  int32
		next int32 // the node numbered before it in its bin, or -1
		p    [3]float64
	}
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
	inv := 0.5 / tol
	// onBoundary[l]: local node l has index 0 or N in some direction.
	np1 := m.N + 1
	onBoundary := make([]bool, m.Np)
	nb := 0
	for l := range onBoundary {
		for a, stride := 0, 1; a < m.Dim; a, stride = a+1, stride*np1 {
			if i := l / stride % np1; i == 0 || i == m.N {
				onBoundary[l] = true
			}
		}
		if onBoundary[l] {
			nb++
		}
	}
	nodes := make([]node, 0, m.K*nb)
	bins := make(map[[3]int64]int32, m.K*nb) // bin -> the last node numbered in it
	m.GID = make([]int64, m.K*m.Np)
	wrap := m.spec.PeriodicWrap
	next := int32(0)
	for li := range m.GID {
		if !onBoundary[li%m.Np] {
			m.GID[li] = int64(next)
			next++
			continue
		}
		p := [3]float64{m.X[li], m.Y[li], m.Zc[li]}
		if wrap != nil {
			p = wrap(p)
		}
		// A 2-D mesh is matched in the one bin plane c = 0 (its z is 0).
		var home, side [3]int64
		for a := 0; a < m.Dim; a++ {
			t := p[a] * inv
			f := math.Floor(t)
			home[a], side[a] = int64(f), 1
			if t-f < 0.5 {
				side[a] = -1
			}
		}
		found, head := int32(-1), int32(-1)
	search:
		for d := 0; d < 1<<m.Dim; d++ {
			k := home
			for a := 0; a < m.Dim; a++ {
				k[a] += side[a] * int64(d>>a&1)
			}
			j, ok := bins[k]
			if !ok {
				j = -1
			}
			if d == 0 {
				head = j
			}
			for j >= 0 {
				q := &nodes[j]
				if math.Abs(q.p[0]-p[0]) < tol && math.Abs(q.p[1]-p[1]) < tol && math.Abs(q.p[2]-p[2]) < tol {
					found = q.gid
					break search
				}
				j = q.next
			}
		}
		if found < 0 {
			found = next
			next++
			bins[home] = int32(len(nodes))
			nodes = append(nodes, node{found, head, p})
		}
		m.GID[li] = int64(found)
	}
	m.NGlobal = int(next)
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
// key is the smallest global id among its nodes off its edges, which both
// elements that share the face see whatever their orientation. (Corner ids
// would not do: with a periodic direction two elements long, both ends of an
// element have one corner set.) A key held by exactly two faces of different
// elements makes them adjacent; every node of a face whose key no other face
// holds is on the boundary (periodic faces are shared through the wrapped
// numbering, hence interior).
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

	// onFace reports whether local node l lies on face (a, side), and whether
	// it lies there off the face's edges.
	onFace := func(l, a, side int) (on, inner bool) {
		if l/stride[a]%np1 != side*m.N {
			return false, false
		}
		for b := 0; b < m.Dim; b++ {
			if i := l / stride[b] % np1; b != a && (i == 0 || i == m.N) {
				return true, false
			}
		}
		return true, true
	}
	keys := make([]int64, m.K*nf)
	faces := make(map[int64][]int, len(keys)) // key -> element faces e*nf+f
	for ef := range keys {
		e, a, side := ef/nf, ef%nf/2, ef%2
		k := int64(math.MaxInt64)
		for l := 0; l < m.Np; l++ {
			if _, inner := onFace(l, a, side); inner {
				k = min(k, m.GID[e*m.Np+l])
			}
		}
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
				if on, _ := onFace(l, a, side); on {
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
