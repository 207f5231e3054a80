package schwarz

// pressure.go: the Sec. 5 preconditioner of the consistent pressure operator
// E, built where E lives — on the discontinuous Gauss grid. The subdomain of
// element k is its own (N−1)^d Gauss points extended by one gridpoint into
// each face neighbour; its local problem Ã_k is the separable linear-FEM
// Laplacian on that tensor grid, solved by fast diagonalization. Subdomain
// data travels in blocks of (N+1)^d entries — the own points in the
// interior, the neighbours' layers on the face-interior border — which is the
// velocity block size, so the exchange with the neighbours is the velocity
// grid's direct stiffness sum: a border entry sits on a face-interior GLL
// node, which exactly two elements share, and the assembled value minus the
// own contribution is the neighbour's. Set-up is global; the kernels act on
// one element's blocks with caller scratch and only read the receiver.

import (
	"fmt"
	"slices"

	"repro/internal/coarse"
	"repro/internal/fdm"
	"repro/internal/fem"
	"repro/internal/gs"
	"repro/internal/la"
	"repro/internal/poly"
	"repro/internal/sem"
	"repro/internal/tensor"
)

// Pressure is the additive overlapping Schwarz preconditioner of E,
//
//	M⁻¹ = R₀ᵀ A₀⁻¹ R₀ + Σ_k R_kᵀ Ã_k⁻¹ R_k,
//
// as element-subset pieces: ExtrudeElem, LocalSolveElem and FoldElem around
// the caller's two assemblies are the local sum, CoarseRestrictElems,
// CoarseSolve (or the distributed solve of CoarseFactor) and
// CoarseProlongElems the vertex term.
type Pressure struct {
	d        *sem.Disc
	npp      int
	local    []*fdm.Solver // per element
	workLen  int           // scratch of the largest
	axes     int           // 1-D eigenproblems set-up solved: one per distinct (extent, neighbours)
	inner    []int32       // block index of each own pressure node
	faceBlk  [][]int32     // per face 2a+side: block indices of the border entries
	facePres [][]int32     // per face: own pressure node next to each border entry
	vc       *vertexCoarse
	weights  [][]float64 // [corner][pressure node]: vertex weights at the Gauss points
	wT       []float64   // npp x 2^dim: weights transposed, the vertex sums' operand
}

// NewPressure sets the preconditioner up on the mesh and gather–scatter
// topology of the unmasked discretization d: the pressure has no boundary
// condition of its own, so a face without a neighbour keeps the natural
// Neumann condition and the vertex operator is pinned at one vertex.
func NewPressure(d *sem.Disc) (*Pressure, error) {
	m := d.M
	nm1 := m.N - 1
	if nm1 < 2 {
		return nil, fmt.Errorf("schwarz: pressure subdomains need two Gauss points per direction (N >= 3), got N = %d", m.N)
	}
	p := &Pressure{d: d}
	p.faceTables()
	zp, _ := poly.Gauss(nm1)
	lens := make([][3]float64, m.K)
	for e := range lens {
		lens[e] = dirLengths(d, e)
	}
	nbr := p.neighbourLengths(lens)
	var err error
	p.local, p.workLen, p.axes, err = localSolvers(m,
		func(e, c int) [3]float64 { return [3]float64{lens[e][c], nbr[e][2*c], nbr[e][2*c+1]} },
		func(k [3]float64) (a, b []float64) { return pressure1D(zp, k[0], k[1], k[2]) })
	if err != nil {
		return nil, fmt.Errorf("schwarz: pressure subdomain: %w", err)
	}
	dirich := make([]bool, m.NVert)
	dirich[0] = true
	vc, err := newVertexCoarse(m, dirich)
	if err != nil {
		return nil, err
	}
	p.vc = vc
	p.weights = cornerWeights(m.Dim, zp)
	p.wT = tensor.Transpose(slices.Concat(p.weights...), len(p.weights), p.npp)
	return p, nil
}

// faceTables fills the index tables of the subdomain block: own node l of the
// (N−1)^d pressure block sits at block index inner[l]; border entry k of face
// 2a+side (direction a, low or high side) sits at faceBlk[f][k], next to own
// node facePres[f][k]. Edges and corners of the block belong to no face.
func (p *Pressure) faceTables() {
	m := p.d.M
	dim, nm1, np1 := m.Dim, m.N-1, m.N+1
	p.npp = nm1 * nm1
	if dim == 3 {
		p.npp *= nm1
	}
	p.inner = make([]int32, p.npp)
	p.faceBlk = make([][]int32, 2*dim)
	p.facePres = make([][]int32, 2*dim)
	for l := range p.inner {
		ijk := [3]int{l % nm1, (l / nm1) % nm1, l / (nm1 * nm1)}
		blk := 0
		for c, stride := 0, 1; c < dim; c, stride = c+1, stride*np1 {
			blk += (ijk[c] + 1) * stride
		}
		p.inner[l] = int32(blk)
		for a, stride := 0, 1; a < dim; a, stride = a+1, stride*np1 {
			if ijk[a] == 0 {
				p.faceBlk[2*a] = append(p.faceBlk[2*a], int32(blk-stride))
				p.facePres[2*a] = append(p.facePres[2*a], int32(l))
			}
			if ijk[a] == nm1-1 {
				p.faceBlk[2*a+1] = append(p.faceBlk[2*a+1], int32(blk+stride))
				p.facePres[2*a+1] = append(p.facePres[2*a+1], int32(l))
			}
		}
	}
}

// neighbourLengths returns, per element and face, the extent of the face
// neighbour normal to the shared face (0 where the face has none), by one
// direct stiffness sum of the own extents over a face-interior node.
func (p *Pressure) neighbourLengths(lens [][3]float64) [][6]float64 {
	m := p.d.M
	count := make([]float64, m.K*m.Np)
	length := make([]float64, m.K*m.Np)
	for e := 0; e < m.K; e++ {
		for f, blk := range p.faceBlk {
			count[e*m.Np+int(blk[0])] = 1
			length[e*m.Np+int(blk[0])] = lens[e][f/2]
		}
	}
	p.d.GS.ApplyFields(gs.Sum, count, length)
	out := make([][6]float64, m.K)
	for e := range out {
		for f, blk := range p.faceBlk {
			if i := e*m.Np + int(blk[0]); count[i] > 1.5 {
				out[e][f] = length[i] - lens[e][f/2]
			}
		}
	}
	return out
}

// pressure1D returns the (N+1)² linear-FEM stiffness and lumped mass of one
// direction of one subdomain, on the grid [low neighbour's last Gauss point,
// own Gauss points, high neighbour's first Gauss point] with a Dirichlet
// condition at the neighbours' second points. l is the own extent, lo and hi
// the neighbours' (0 = no neighbour: the border unknown is decoupled by a
// unit row and the own points keep the natural condition).
func pressure1D(zp []float64, l, lo, hi float64) (a, b []float64) {
	nm1 := len(zp)
	n := nm1 + 2
	g0, g1 := (1+zp[0])/2, (1+zp[1])/2
	xs := make([]float64, 0, n+2)
	if lo > 0 {
		xs = append(xs, -g1*lo, -g0*lo)
	}
	for _, z := range zp {
		xs = append(xs, (1+z)/2*l)
	}
	if hi > 0 {
		xs = append(xs, l+g0*hi, l+g1*hi)
	}
	af, bf := fem.Line1D(xs)
	ne := len(xs)
	// Unknown i of the subdomain is grid point i+shift; points outside
	// [first, last] are the Dirichlet ends or absent.
	shift, first, last := 1, 0, n-1
	if lo == 0 {
		shift, first = -1, 1
	}
	if hi == 0 {
		last = n - 2
	}
	a = make([]float64, n*n)
	b = make([]float64, n*n)
	for i := 0; i < n; i++ {
		if i < first || i > last {
			a[i*n+i], b[i*n+i] = 1, 1
			continue
		}
		b[i*n+i] = bf[i+shift]
		for j := first; j <= last; j++ {
			a[i*n+j] = af[(i+shift)*ne+j+shift]
		}
	}
	return a, b
}

// LocalWorkLen returns the scratch length LocalSolveElem needs.
func (p *Pressure) LocalWorkLen() int { return p.workLen }

// ExtrudeElem writes one element's subdomain block (length Np) from its
// residual block r (length Npp): the own points in the interior, and on each
// face border the own layer next to it — the layer the neighbour across that
// face needs, which the direct stiffness sum then delivers.
func (p *Pressure) ExtrudeElem(blk, r []float64) {
	for i := range blk {
		blk[i] = 0
	}
	for l, i := range p.inner {
		blk[i] = r[l]
	}
	for f, fb := range p.faceBlk {
		for k, l := range p.facePres[f] {
			blk[fb[k]] = r[l]
		}
	}
}

// LocalSolveElem turns the assembled extruded block of (global) element e
// into the subdomain residual R_k r — subtracting the own layers leaves the
// neighbours' on the borders, zero on a face without a neighbour — and writes
// z = Ã_k⁻¹ R_k r (length Np). On return blk's borders hold z's: the own
// contribution FoldElem takes back out of the assembled z. work has length ≥
// LocalWorkLen.
func (p *Pressure) LocalSolveElem(z, blk, r []float64, e int, work []float64) {
	for f, fb := range p.faceBlk {
		for k, l := range p.facePres[f] {
			blk[fb[k]] -= r[l]
		}
	}
	p.local[e].Apply(z, blk, work)
	for _, fb := range p.faceBlk {
		for _, i := range fb {
			blk[i] = z[i]
		}
	}
}

// FoldElem writes one element's block of Σ_k R_kᵀ z_k (length Npp) from the
// assembled local solutions z and the borders LocalSolveElem saved in blk:
// the own interior plus, on each layer next to a face, the correction the
// neighbour's subdomain made to it.
func (p *Pressure) FoldElem(out, z, blk []float64) {
	for l, i := range p.inner {
		out[l] = z[i]
	}
	for f, fb := range p.faceBlk {
		for k, l := range p.facePres[f] {
			out[l] += z[fb[k]] - blk[fb[k]]
		}
	}
}

// LocalFlops returns the flop count of the three kernels on element e: the
// fast diagonalization solve, tensor applies around one pointwise scaling,
// is matrix–matrix work; extrusion and fold are vector work.
func (p *Pressure) LocalFlops(e int) (mm, vec int64) {
	return p.local[e].Flops(), int64(3 * len(p.faceBlk) * len(p.faceBlk[0]))
}

// CoarseFactor returns the factor of the pinned vertex-mesh operator A₀,
// which a distributed run splits over its ranks (coarse.XXT.Distribute).
func (p *Pressure) CoarseFactor() *coarse.XXT { return p.vc.fac }

// CoarseSolve solves A₀ x0 = r0 through the factor's L and returns the flop
// count. Not for concurrent callers.
func (p *Pressure) CoarseSolve(x0, r0 []float64) int64 { return p.vc.solve(x0, r0) }

// CoarseRestrictElems accumulates R₀ r over the listed (global) elements
// into the full vertex vector r0, r being their residual blocks in that
// order. R₀ᵀ interpolates the vertex values to the Gauss points; pressure
// nodes are unshared, so there is no multiplicity. Every element's vertex
// sums are one product, acc = r Wᵀ with r the len(elems) x Npp matrix of the
// blocks: each sum is the chain over the Gauss points from zero that a
// per-corner loop makes. acc is caller scratch of length at least
// len(elems)·2^dim; the pinned vertex's sums are computed and dropped.
// Returns the flop count.
func (p *Pressure) CoarseRestrictElems(r0, acc, r []float64, elems []int) int64 {
	nc := len(p.weights)
	la.Mul(acc, r, p.wT, len(elems), p.npp, nc)
	for li, e := range elems {
		for c, v := range p.d.M.ElemVert[e][:nc] {
			if !p.vc.dirich[v] {
				r0[v] += acc[li*nc+c]
			}
		}
	}
	return int64(2 * len(elems) * nc * p.npp)
}

// CoarseProlongElems adds R₀ᵀ x0 into the listed elements' blocks of out,
// corner by corner. Returns the flop count.
func (p *Pressure) CoarseProlongElems(out, x0 []float64, elems []int) int64 {
	for li, e := range elems {
		oe := out[li*p.npp : (li+1)*p.npp]
		for c, w := range p.weights {
			la.Axpy(x0[p.d.M.ElemVert[e][c]], w, oe)
		}
	}
	return int64(2 * len(elems) * len(p.weights) * p.npp)
}
