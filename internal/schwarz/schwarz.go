// Package schwarz implements the paper's additive overlapping Schwarz
// preconditioner (Sec. 5):
//
//	M₀⁻¹ = R₀ᵀ A₀⁻¹ R₀ + Σ_k R_kᵀ Ã_k⁻¹ R_k
//
// with one subdomain per spectral element. Local solves Ã_k⁻¹ come in two
// flavours: the tensor-product fast diagonalization method (FDM) on the
// one-point-extended element grid (the paper's production path), and
// dense-factored restrictions of a global low-order FEM Laplacian with
// overlap N_o ∈ {0,1,3} (the Table 2 comparison baselines). The coarse
// component solves the low-order Laplacian on the spectral element vertex
// mesh and can be disabled to reproduce the A₀ = 0 column of Table 2.
//
// Precond is that preconditioner for the velocity-grid Poisson problem (what
// Table 2 measures); Pressure (pressure.go) is the same construction for the
// pressure operator E of the Navier–Stokes step, on the Gauss grid, and
// shares the vertex coarse operator.
package schwarz

import (
	"fmt"
	"math"

	"repro/internal/coarse"
	"repro/internal/fdm"
	"repro/internal/fem"
	"repro/internal/gs"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/sem"
)

// Method selects the local solver.
type Method int

// Local solve flavours.
const (
	FDM Method = iota // fast diagonalization on the extended tensor grid
	FEM               // dense-factored low-order FEM subdomain solves
)

// Options configures the preconditioner.
type Options struct {
	Method    Method
	Overlap   int  // FEM only: N_o gridpoint layers beyond the element (0, 1, 3)
	UseCoarse bool // include the R₀ᵀ A₀⁻¹ R₀ term
	Neumann   bool // operator has the constant null space (pressure Poisson)
}

// Precond is a ready additive Schwarz preconditioner for the assembled
// Laplacian/Helmholtz of a sem.Disc.
type Precond struct {
	d   *sem.Disc
	opt Options

	// FDM path: one factored subdomain per element and scratch as long as the
	// largest needs.
	local []*fdm.Solver
	work  []float64

	// FEM path (2D): per-subdomain free global ids and factorizations.
	subIdx [][]int32
	subFac []*la.Cholesky
	// Jacobi fallback on nodes covered by no subdomain (N_o = 0 interfaces).
	uncovDiag []float64 // 0 where covered

	// Coarse path (nil vc without UseCoarse).
	vc *vertexCoarse
	// Prolongation weights: for each element-local node, the 2^Dim corner
	// weights (tensor order).
	pWeights   [][]float64 // [corner][localNode]
	pWeightNNZ []int64     // non-zero weights per corner (the restriction's flop count)

	// Preallocated coarse-solve buffers (Apply must not allocate in steady
	// state).
	r0, x0 []float64
	// Preallocated FEM-path buffers.
	rg, og, rs []float64
}

// New builds the preconditioner for the discretization d.
func New(d *sem.Disc, opt Options) (*Precond, error) {
	p := &Precond{d: d, opt: opt}
	m := d.M
	switch opt.Method {
	case FDM:
		if err := p.setupFDM(); err != nil {
			return nil, err
		}
	case FEM:
		if m.Dim != 2 {
			return nil, fmt.Errorf("schwarz: FEM local solves are implemented in 2D only")
		}
		if err := p.setupFEM(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("schwarz: unknown method %d", opt.Method)
	}
	if opt.UseCoarse {
		if err := p.setupCoarse(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// extended1DGrid returns the one-point-extended local 1D grid for an
// element direction of physical length L: the GLL points scaled to [0, L],
// with one extra point on each side at the first interior spacing (the
// paper's single-gridpoint extension into the neighbours).
func extended1DGrid(z []float64, l float64) []float64 {
	n := len(z)
	xs := make([]float64, n+2)
	for i, zi := range z {
		xs[i+1] = (zi + 1) / 2 * l
	}
	h0 := xs[2] - xs[1]
	hn := xs[n] - xs[n-1]
	xs[0] = xs[1] - h0
	xs[n+1] = xs[n] + hn
	return xs
}

// dirLengths estimates the per-direction physical extents of element e from
// its corner vertices (the "rectilinear domain of roughly the same
// dimensions" of Sec. 5).
func dirLengths(d *sem.Disc, e int) [3]float64 {
	m := d.M
	dist := func(a, b int) float64 {
		pa := m.ElemCorner(e, a)
		pb := m.ElemCorner(e, b)
		dx, dy, dz := pb[0]-pa[0], pb[1]-pa[1], pb[2]-pa[2]
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	// Direction a averages the edges (c, c|1<<a) over the corners c on its
	// low side, in corner order.
	var out [3]float64
	for a := 0; a < m.Dim; a++ {
		for c := 0; c < 1<<m.Dim; c++ {
			if c>>a&1 == 0 {
				out[a] += dist(c, c|1<<a)
			}
		}
		out[a] /= float64(int(1) << (m.Dim - 1))
	}
	return out
}

// local1DOperators builds the interior (Dirichlet-on-extension) 1D FEM
// stiffness and mass for one direction of one element.
func local1DOperators(z []float64, l float64) (a, b []float64) {
	xs := extended1DGrid(z, l)
	ne := len(xs)
	aFull, bDiag := fem.Line1D(xs)
	// Dirichlet at both extension points: keep indices 1..ne-2.
	idx := make([]int, ne-2)
	for i := range idx {
		idx[i] = i + 1
	}
	a = fem.Restrict(aFull, ne, idx)
	n := len(idx)
	b = make([]float64, n*n)
	for i := 0; i < n; i++ {
		b[i*n+i] = bDiag[idx[i]]
	}
	return a, b
}

func (p *Precond) setupFDM() error {
	d := p.d
	m := d.M
	lens := make([][3]float64, m.K)
	for e := range lens {
		lens[e] = dirLengths(d, e)
	}
	local, workLen, _, err := localSolvers(m,
		func(e, c int) [3]float64 { return [3]float64{lens[e][c]} },
		func(k [3]float64) (a, b []float64) { return local1DOperators(m.Z, k[0]) })
	if err != nil {
		return fmt.Errorf("schwarz: %w", err)
	}
	p.local, p.work = local, make([]float64, workLen)
	return nil
}

// localSolvers builds the fast diagonalization solver of every element's
// subdomain, N+1 points per direction. Direction c of element e is the 1-D
// operator pair ops(k) of its key k = key(e, c), an extent and its low and
// high neighbours' (0 where none enters). The generalized eigenproblem of a
// pair is solved once per bitwise-distinct key and every subdomain with that
// key shares it; each solver keeps its own eigenvalue scale and diagonal. It
// returns the solvers, the scratch the largest needs and the number of
// eigenproblems solved.
func localSolvers(m *mesh.Mesh, key func(e, c int) [3]float64, ops func(k [3]float64) (a, b []float64)) ([]*fdm.Solver, int, int, error) {
	bits := func(k [3]float64) [3]uint64 {
		return [3]uint64{math.Float64bits(k[0]), math.Float64bits(k[1]), math.Float64bits(k[2])}
	}
	solved := map[[3]uint64]*fdm.Axis{}
	local := make([]*fdm.Solver, m.K)
	workLen := 0
	for e := range local {
		var ax [3]*fdm.Axis
		for c := 0; c < m.Dim; c++ {
			k := key(e, c)
			if ax[c] = solved[bits(k)]; ax[c] != nil {
				continue
			}
			a, b := ops(k)
			x, err := fdm.NewAxis(a, b, m.N+1)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("element %d, %c direction: %w", e, "xyz"[c], err)
			}
			ax[c], solved[bits(k)] = x, x
		}
		local[e] = fdm.New(ax)
		workLen = max(workLen, local[e].WorkLen())
	}
	return local, workLen, len(solved), nil
}

func (p *Precond) setupFEM() error {
	d := p.d
	m := d.M
	aFEM := fem.AssembleGLL2D(m)
	adj := fem.NodeAdjacency(m)
	dirich := make([]bool, m.NGlobal)
	if d.Mask != nil {
		for i, mk := range d.Mask {
			if mk == 0 {
				dirich[m.GID[i]] = true
			}
		}
	}
	np1 := m.N + 1
	covered := make([]bool, m.NGlobal)
	p.subIdx = make([][]int32, m.K)
	p.subFac = make([]*la.Cholesky, m.K)
	mark := make([]int, m.NGlobal)
	for i := range mark {
		mark[i] = -1
	}
	for e := 0; e < m.K; e++ {
		var seed []int32
		if p.opt.Overlap == 0 {
			// Interior nodes of the element only.
			for j := 1; j < np1-1; j++ {
				for i := 1; i < np1-1; i++ {
					seed = append(seed, int32(m.GID[e*m.Np+j*np1+i]))
				}
			}
		} else {
			for l := 0; l < m.Np; l++ {
				seed = append(seed, int32(m.GID[e*m.Np+l]))
			}
		}
		// Grow by Overlap-1 layers beyond the element for Overlap >= 1
		// (Overlap 1 = the element itself as free set, matching the
		// one-point extension whose extension points are Dirichlet).
		frontier := seed
		set := make([]int32, 0, len(seed))
		for _, g := range seed {
			if mark[g] != e {
				mark[g] = e
				set = append(set, g)
			}
		}
		for layer := 1; layer < p.opt.Overlap; layer++ {
			var next []int32
			for _, g := range frontier {
				for _, nb := range adj[g] {
					if mark[nb] != e {
						mark[nb] = e
						set = append(set, nb)
						next = append(next, nb)
					}
				}
			}
			frontier = next
		}
		// Remove Dirichlet nodes.
		free := set[:0]
		for _, g := range set {
			if !dirich[g] {
				free = append(free, g)
			}
		}
		if len(free) == 0 {
			continue
		}
		idx := make([]int, len(free))
		for i, g := range free {
			idx[i] = int(g)
			covered[g] = true
		}
		sub := denseRestrictCSR(aFEM, idx)
		fac, err := la.FactorCholesky(sub, len(idx))
		if err != nil {
			return fmt.Errorf("schwarz: subdomain %d: %w", e, err)
		}
		cp := make([]int32, len(free))
		copy(cp, free)
		p.subIdx[e] = cp
		p.subFac[e] = fac
	}
	// Jacobi fallback for uncovered free nodes (interfaces at N_o = 0).
	p.uncovDiag = make([]float64, m.NGlobal)
	diag := aFEM.Diag()
	for g := 0; g < m.NGlobal; g++ {
		if !covered[g] && !dirich[g] && diag[g] != 0 {
			p.uncovDiag[g] = 1 / diag[g]
		}
	}
	p.rg = make([]float64, m.NGlobal)
	p.og = make([]float64, m.NGlobal)
	maxSub := 0
	for _, idx := range p.subIdx {
		if len(idx) > maxSub {
			maxSub = len(idx)
		}
	}
	p.rs = make([]float64, maxSub)
	return nil
}

// denseRestrictCSR extracts the dense principal submatrix of a CSR matrix.
func denseRestrictCSR(a *la.CSR, idx []int) []float64 {
	n := len(idx)
	pos := make(map[int]int, n)
	for i, g := range idx {
		pos[g] = i
	}
	out := make([]float64, n*n)
	for i, g := range idx {
		for p := a.Ptr[g]; p < a.Ptr[g+1]; p++ {
			if j, ok := pos[a.Col[p]]; ok {
				out[i*n+j] = a.Val[p]
			}
		}
	}
	return out
}

func (p *Precond) setupCoarse() error {
	d := p.d
	m := d.M
	// Dirichlet vertices: vertices whose global node is masked.
	dirich := make([]bool, m.NVert)
	if d.Mask != nil {
		maskedG := make([]bool, m.NGlobal)
		for i, mk := range d.Mask {
			if mk == 0 {
				maskedG[m.GID[i]] = true
			}
		}
		for e, vs := range m.ElemVert {
			for c, v := range vs {
				if maskedG[m.GID[m.CornerNode(e, c)]] {
					dirich[v] = true
				}
			}
		}
	}
	if p.opt.Neumann {
		dirich[0] = true // singular Neumann operator: pin one vertex
	}
	vc, err := newVertexCoarse(m, dirich)
	if err != nil {
		return err
	}
	p.vc = vc
	p.r0 = make([]float64, m.NVert)
	p.x0 = make([]float64, m.NVert)
	p.pWeights = cornerWeights(m.Dim, m.Z)
	p.pWeightNNZ = make([]int64, len(p.pWeights))
	for c, w := range p.pWeights {
		for _, wv := range w {
			if wv != 0 {
				p.pWeightNNZ[c]++
			}
		}
	}
	return nil
}

// vertexCoarse is the coarse component A₀ both preconditioners share: the
// low-order FEM Laplacian on the spectral element vertex mesh with identity
// rows on the Dirichlet (or pinned) vertices, factored once by coarse.NewXXT.
type vertexCoarse struct {
	fac    *coarse.XXT
	dirich []bool
	rp     []float64 // the solve's scratch in the factor's order
}

func newVertexCoarse(m *mesh.Mesh, dirich []bool) (*vertexCoarse, error) {
	a0 := fem.AssembleCoarse(m)
	b := la.NewCOO(m.NVert, m.NVert)
	for i := 0; i < m.NVert; i++ {
		if dirich[i] {
			b.Add(i, i, 1)
			continue
		}
		for q := a0.Ptr[i]; q < a0.Ptr[i+1]; q++ {
			if j := a0.Col[q]; !dirich[j] {
				b.Add(i, j, a0.Val[q])
			}
		}
	}
	fac, err := coarse.NewXXT(b.ToCSR(), 0, 0)
	if err != nil {
		return nil, fmt.Errorf("schwarz: %w", err)
	}
	return &vertexCoarse{fac: fac, dirich: dirich, rp: make([]float64, m.NVert)}, nil
}

// solve computes x0 = A₀⁻¹ r0 with the factor and returns the flop count. It
// uses the receiver's scratch: not for concurrent callers.
func (c *vertexCoarse) solve(x0, r0 []float64) int64 { return c.fac.Solve(x0, r0, c.rp) }

// cornerWeights returns, per element corner (tensor order), the multilinear
// vertex weight at every node of the tensor grid over the 1-D points pts: the
// columns of the coarse prolongation on one element.
func cornerWeights(dim int, pts []float64) [][]float64 {
	n := len(pts)
	nn := n * n
	if dim == 3 {
		nn *= n
	}
	ws := make([][]float64, 1<<dim)
	for c := range ws {
		w := make([]float64, nn)
		for l := range w {
			w[l] = 1
			for a, stride := 0, 1; a < dim; a, stride = a+1, stride*n {
				w[l] *= cornerWeight(c>>a&1 != 0, pts[l/stride%n])
			}
		}
		ws[c] = w
	}
	return ws
}

func cornerWeight(plus bool, r float64) float64 {
	if plus {
		return (1 + r) / 2
	}
	return (1 - r) / 2
}

// Apply computes out = M⁻¹ r for the element-local, assembled residual r.
func (p *Precond) Apply(out, r []float64) { p.apply(out, r, p.opt.UseCoarse) }

// ApplyLocal computes the additive-Schwarz sum without the coarse XXT
// vertex term, even when UseCoarse is set — the cheap smoothing sweep the
// Chebyshev-accelerated Schwarz preconditioner wraps (the polynomial
// supplies the global coupling the coarse solve otherwise provides).
func (p *Precond) ApplyLocal(out, r []float64) { p.apply(out, r, false) }

func (p *Precond) apply(out, r []float64, coarse bool) {
	d := p.d
	m := d.M
	for i := range out {
		out[i] = 0
	}
	switch p.opt.Method {
	case FDM:
		np := m.Np
		for e, ls := range p.local {
			ls.Apply(out[e*np:(e+1)*np], r[e*np:(e+1)*np], p.work)
			d.CountFlops(ls.Flops())
		}
	case FEM:
		rg := p.rg
		for i, gid := range m.GID {
			rg[gid] = r[i]
		}
		og := p.og
		for i := range og {
			og[i] = 0
		}
		for e := 0; e < m.K; e++ {
			idx := p.subIdx[e]
			if idx == nil {
				continue
			}
			n := len(idx)
			rs := p.rs[:n]
			for i, g := range idx {
				rs[i] = rg[g]
			}
			p.subFac[e].Solve(rs, rs)
			for i, g := range idx {
				og[g] += rs[i]
			}
			d.CountFlops(int64(2 * n * n))
		}
		for g, inv := range p.uncovDiag {
			if inv != 0 {
				og[g] += rg[g] * inv
			}
		}
		// Scatter to element-local layout.
		for i, gid := range m.GID {
			out[i] = og[gid]
		}
	}
	if p.opt.Method == FDM {
		// Sum overlapping element contributions (R_kᵀ of the additive sum).
		d.GS.Apply(out, gs.Sum)
	}
	if coarse {
		// The coarse term is a continuous field: add it after assembly.
		p.applyCoarse(out, r)
	}
	d.ApplyMask(out)
}

// applyCoarse adds R₀ᵀ A₀⁻¹ R₀ r into out (element-local layout): restrict
// with R₀ = Pᵀ W, W = diag(1/multiplicity), solve on the vertex mesh, prolong.
// Every local copy of a shared node receives the same (continuous)
// interpolated value, so the prolongation has no multiplicity weighting.
func (p *Precond) applyCoarse(out, r []float64) {
	d := p.d
	m := d.M
	r0, x0 := p.r0, p.x0
	for i := range r0 {
		r0[i] = 0
	}
	var flops int64
	for e := 0; e < m.K; e++ {
		re := r[e*m.Np : (e+1)*m.Np]
		mult := d.Mult[e*m.Np : (e+1)*m.Np]
		for c, w := range p.pWeights {
			v := m.ElemVert[e][c]
			if p.vc.dirich[v] {
				continue
			}
			var s float64
			for l, rl := range re {
				if w[l] == 0 {
					continue
				}
				s += w[l] * rl / mult[l]
			}
			r0[v] += s
			flops += 3 * p.pWeightNNZ[c]
		}
	}
	flops += p.vc.solve(x0, r0)
	for e := 0; e < m.K; e++ {
		oe := out[e*m.Np : (e+1)*m.Np]
		for c, w := range p.pWeights {
			v := m.ElemVert[e][c]
			xv := x0[v]
			if p.vc.dirich[v] || xv == 0 {
				continue
			}
			for l := range oe {
				oe[l] += w[l] * xv
			}
			flops += int64(2 * m.Np)
		}
	}
	d.CountFlops(flops)
}
