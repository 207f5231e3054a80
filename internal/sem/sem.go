// Package sem assembles the matrix-free spectral element operators of
// Secs. 2–3 of the paper on top of a mesh: the deformed-geometry stiffness
// (discrete Laplacian, eq. (4)), the diagonal mass matrix, Helmholtz
// operators, physical-space gradients, and the Fischer–Mullen stabilizing
// filter. All operators act on element-local vectors (length K·Np) and are
// assembled with the gather–scatter; Dirichlet conditions enter through a
// multiplicative mask. Every application is counted by an analytic flop
// meter for the performance model.
//
// The package keeps no execution state: its full-mesh operators are plain
// loops over runs of consecutive elements (mesh.Run), and its per-element
// kernels (StiffnessElement, GradElement and FilterElement on a run,
// StiffnessDiagElement on one element) only read the Disc.
package sem

import (
	"math"
	"sync/atomic"

	"repro/internal/gs"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/tensor"
)

// Disc is a discretized scalar-field operator set over one mesh. Its
// full-mesh operators share one scratch slice, so they are not safe for
// concurrent calls on one Disc; the per-element kernels are.
type Disc struct {
	M    *mesh.Mesh
	GS   *gs.Handle
	Mask []float64 // 1 on free nodes, 0 on Dirichlet nodes (nil = no mask)
	Mult []float64 // nodal multiplicity

	Dt      []float64 // transpose of the 1D derivative matrix
	flops   atomic.Int64
	runs    []mesh.Run // every element, in runs, for the full-mesh loops
	scratch []float64  // theirs, made on first use (runScratch)
}

// New builds the operator set. mask may be nil (pure Neumann / periodic).
func New(m *mesh.Mesh, mask []float64) *Disc {
	d := &Disc{M: m, GS: gs.Init(m.GID), Mask: mask, Dt: m.Dt}
	d.Mult = d.GS.Multiplicity()
	all := make([]int, m.K)
	for e := range all {
		all[e] = e
	}
	d.runs = m.Runs(all)
	return d
}

// Unmasked returns a view of d without its Dirichlet mask: the same mesh,
// gather–scatter handle, multiplicity and runs, with a flop meter and
// scratch of its own.
func (d *Disc) Unmasked() *Disc {
	return &Disc{M: d.M, GS: d.GS, Mult: d.Mult, Dt: d.Dt, runs: d.runs}
}

// runScratch returns the full-mesh loops' scratch, ElemScratchLen per
// element of the longest run, made on the first call: a solver's step runs
// the element kernels on scratch of its own and never needs it.
func (d *Disc) runScratch() []float64 {
	if d.scratch == nil {
		d.scratch = make([]float64, mesh.LongestRun(d.runs)*d.ElemScratchLen())
	}
	return d.scratch
}

// Flops returns the cumulative analytic flop count of all operator
// applications since construction (or the last ResetFlops).
func (d *Disc) Flops() int64 { return d.flops.Load() }

// ResetFlops zeroes the flop meter.
func (d *Disc) ResetFlops() { d.flops.Store(0) }

// CountFlops adds externally-performed work to the meter.
func (d *Disc) CountFlops(n int64) { d.flops.Add(n) }

// StiffnessLocal applies the unassembled element stiffness matrices:
// out^k = A^k u^k per eq. (4), one StiffnessElement per run. out must not
// alias u.
func (d *Disc) StiffnessLocal(out, u []float64) {
	m := d.M
	for _, r := range d.runs {
		i0, i1 := r.E*m.Np, (r.E+r.N)*m.Np
		d.StiffnessElement(out[i0:i1], u[i0:i1], r.E, r.N, d.runScratch())
	}
	mm, vec := StiffnessFlops(m)
	d.flops.Add(int64(m.K) * (mm + vec))
}

// StiffnessFlops returns the flops of one StiffnessElement: 2·dim derivative
// products (matrix–matrix) and (2·dim² − 1)·Np pointwise ones (vector); in
// 3D the paper's 12N⁴ + 15N³, here with N + 1 points and every sum counted.
func StiffnessFlops(m *mesh.Mesh) (mm, vec int64) {
	dim := int64(m.Dim)
	return 2 * dim * tensor.FlopsApplyDim(m.N+1, m.Dim), (2*dim*dim - 1) * int64(m.Np)
}

// Assemble performs the gather-scatter sum and applies the Dirichlet mask.
func (d *Disc) Assemble(u []float64) {
	d.GS.Apply(u, gs.Sum)
	d.ApplyMask(u)
	d.flops.Add(int64(len(u)))
}

// ApplyMask zeroes Dirichlet entries.
func (d *Disc) ApplyMask(u []float64) {
	la.Prod(u[:len(d.Mask)], u, d.Mask)
}

// Laplacian applies the assembled, masked stiffness operator:
// out = M QQᵀ A u. The input should already be continuous and masked.
func (d *Disc) Laplacian(out, u []float64) {
	d.StiffnessLocal(out, u)
	d.Assemble(out)
}

// Helmholtz applies out = M QQᵀ (h1·A + h2·B) u, the velocity operator H of
// Sec. 4 (h1 = 1/Re·Δt factor absorbed by the caller, h2 = BDF mass factor).
func (d *Disc) Helmholtz(out, u []float64, h1, h2 float64) {
	d.StiffnessLocal(out, u)
	if h1 != 1 {
		for i := range out {
			out[i] *= h1
		}
	}
	b := d.M.B
	for i := range out {
		out[i] += h2 * b[i] * u[i]
	}
	d.flops.Add(3 * int64(len(out)))
	d.Assemble(out)
}

// Grad computes the physical-space gradient of u per element (unassembled):
// outs[c] = ∂u/∂x_c.
func (d *Disc) Grad(outs [][]float64, u []float64) {
	m := d.M
	np := m.Np
	for _, r := range d.runs {
		i0, i1 := r.E*np, (r.E+r.N)*np
		var o2 []float64
		if m.Dim == 3 {
			o2 = outs[2][i0:i1]
		}
		d.GradElement(outs[0][i0:i1], outs[1][i0:i1], o2, u[i0:i1], r.E, r.N, d.runScratch())
	}
	// dim derivative products, then per component dim products and dim − 1 sums.
	dim := int64(m.Dim)
	d.flops.Add(int64(m.K) * (dim*tensor.FlopsApplyDim(m.N+1, m.Dim) + dim*(2*dim-1)*int64(np)))
}

// Dot is the inner product for element-local redundant storage: each global
// node is counted once (division by multiplicity).
func (d *Disc) Dot(u, v []float64) float64 {
	var s float64
	mult := d.Mult
	for i := range u {
		s += u[i] * v[i] / mult[i]
	}
	d.flops.Add(3 * int64(len(u)))
	return s
}

// Integrate returns ∫ u dΩ by GLL quadrature.
func (d *Disc) Integrate(u []float64) float64 {
	var s float64
	for i, b := range d.M.B {
		s += b * u[i]
	}
	return s
}

// L2Norm returns the L2 norm of the element-local field u.
func (d *Disc) L2Norm(u []float64) float64 {
	var s float64
	for i, b := range d.M.B {
		s += b * u[i] * u[i]
	}
	return math.Sqrt(s)
}

// DirectStiffnessAverage replaces each shared value by the multiplicity-
// weighted average, turning a discontinuous field into a continuous one.
func (d *Disc) DirectStiffnessAverage(u []float64) {
	d.GS.Apply(u, gs.Sum)
	for i := range u {
		u[i] /= d.Mult[i]
	}
	d.flops.Add(2 * int64(len(u)))
}

// Filter holds the per-dimension Fischer–Mullen filter operator F_α.
type Filter struct {
	F     []float64 // (N+1)x(N+1)
	Alpha float64
	np1   int
	ft    []float64 // Fᵀ, the r-direction operand
}

// NewFilter builds the interpolation-based filter of strength alpha on the
// mesh's GLL basis (damps the N-th mode only — the paper's description).
func NewFilter(m *mesh.Mesh, alpha float64) *Filter {
	f := poly.FilterMatrix(alpha, m.Z)
	return &Filter{F: f, Alpha: alpha, np1: m.N + 1, ft: tensor.Transpose(f, m.N+1, m.N+1)}
}

// NewFilterRamp builds the generalized Fischer–Mullen filter that damps the
// modes from `cutoff` up to N with a quadratic ramp reaching strength alpha
// at mode N. With cutoff = N it reduces to the single-mode filter; damping
// the last two or three modes is the robust production setting for strongly
// under-resolved runs.
func NewFilterRamp(m *mesh.Mesh, alpha float64, cutoff int) (*Filter, error) {
	f, err := poly.ModalFilterMatrix(alpha, cutoff, m.Z)
	if err != nil {
		return nil, err
	}
	return &Filter{F: f, Alpha: alpha, np1: m.N + 1, ft: tensor.Transpose(f, m.N+1, m.N+1)}, nil
}

// BuildAssembledCSR materializes the assembled, masked stiffness operator as
// a sparse matrix over global node ids (for tests and for the coarse-grid
// and FEM-preconditioner paths that need explicit matrices). Dirichlet rows
// and columns are replaced by the identity.
func (d *Disc) BuildAssembledCSR() *la.CSR {
	m := d.M
	n := m.NGlobal
	b := la.NewCOO(n, n)
	np := m.Np
	// Column-by-column through local element matrices would be O((KNp)²);
	// instead assemble from element dense blocks built by applying the
	// element stiffness to local basis vectors.
	ue := make([]float64, np)
	oe := make([]float64, np)
	dirich := make([]bool, n)
	if d.Mask != nil {
		for i, mk := range d.Mask {
			if mk == 0 {
				dirich[m.GID[i]] = true
			}
		}
	}
	for e := 0; e < m.K; e++ {
		for j := 0; j < np; j++ {
			for i := range ue {
				ue[i] = 0
			}
			ue[j] = 1
			// Apply the single-element stiffness.
			d.StiffnessElement(oe, ue, e, 1, d.runScratch())
			gj := m.GID[e*np+j]
			for i := 0; i < np; i++ {
				if oe[i] == 0 {
					continue
				}
				gi := m.GID[e*np+i]
				if dirich[int(gi)] || dirich[int(gj)] {
					continue
				}
				b.Add(int(gi), int(gj), oe[i])
			}
		}
	}
	for i := 0; i < n; i++ {
		if dirich[i] {
			b.Add(i, i, 1)
		}
	}
	return b.ToCSR()
}

// ElemScratchLen is the scratch length the per-element kernels
// (StiffnessElement, GradElement, FilterElement) need per element of their
// run: 2·dim·Np.
func (d *Disc) ElemScratchLen() int { return 2 * d.M.Dim * d.M.Np }

// StiffnessElement applies the stiffness matrices of the run of ne
// consecutive elements [e0, e0+ne) to their local nodal vectors ue (ne blocks
// of length Np), writing into oe; s is caller scratch of length ≥
// ne·ElemScratchLen. Like every per-element kernel it only reads the Disc, so
// goroutines holding their own scratch may share one. It computes
// t_a = Σ_b G(a,b) ⊙ D_b ue, then oe = Σ_a D_aᵀ t_a with the terms past D_rᵀ t_r
// summed before they are added: one tensor product per direction for the
// whole run, bitwise the element-by-element result.
func (d *Disc) StiffnessElement(oe, ue []float64, e0, ne int, s []float64) {
	m := d.M
	np1, dim := m.N+1, m.Dim
	nt := 1 // a 2-D element is one layer with no t apply
	if dim == 3 {
		nt = np1
	}
	n, off := ne*m.Np, e0*m.Np
	du, t := s[:dim*n], s[dim*n:2*dim*n]
	last := (dim - 1) * n // the slowest direction, s in 2-D: one ApplyT product
	tensor.ApplyR(du[:n], m.Dt, ue, np1, np1, np1, nt, ne)
	tensor.ApplyT(du[last:], m.D, ue, np1, np1, np1, nt, ne)
	if dim == 3 {
		tensor.ApplyS(du[n:2*n], m.D, ue, np1, np1, np1, nt, ne)
	}
	for a := 0; a < dim; a++ {
		ta := t[a*n : (a+1)*n]
		la.Prod(ta, m.G[symPair(a, 0, dim)][off:], du[:n])
		for b := 1; b < dim; b++ {
			la.AddProd(ta, m.G[symPair(a, b, dim)][off:], du[b*n:(b+1)*n])
		}
	}
	tensor.ApplyR(oe, m.D, t[:n], np1, np1, np1, nt, ne)
	tensor.ApplyT(du[last:], d.Dt, t[last:], np1, np1, np1, nt, ne)
	if dim == 3 {
		tensor.ApplyS(du[n:2*n], d.Dt, t[n:2*n], np1, np1, np1, nt, ne)
		la.Axpy(1, du[2*n:3*n], du[n:2*n])
	}
	la.Axpy(1, du[n:2*n], oe[:n])
}

// symPair is the index in mesh.Mesh.G (pairs a ≤ b in row order) of G(a,b).
func symPair(a, b, dim int) int {
	if a > b {
		a, b = b, a
	}
	return a*dim - a*(a-1)/2 + b - a
}

// GatherGlobal compresses an element-local continuous field to one value
// per global node.
func (d *Disc) GatherGlobal(u []float64) []float64 {
	g := make([]float64, d.M.NGlobal)
	for i, gid := range d.M.GID {
		g[gid] = u[i]
	}
	return g
}

// ScatterGlobal expands a global-node vector to the element-local layout.
func (d *Disc) ScatterGlobal(g []float64) []float64 {
	u := make([]float64, len(d.M.GID))
	for i, gid := range d.M.GID {
		u[i] = g[gid]
	}
	return u
}
