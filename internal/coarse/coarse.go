// Package coarse implements the paper's parallel coarse-grid solvers
// (Sec. 5, Fig. 6) and owns the one factorisation of a coarse problem and
// every solve of it. The workhorse is the Tufo–Fischer XXT method: a sparse
// A-conjugate basis X (Xᵀ A X = I, so A⁻¹ = X Xᵀ) obtained from a
// nested-dissection sparse Cholesky factor L (X = L⁻ᵀ). NewXXT orders and
// factors A once; the serial machine solves through L's triangular solves
// (XXT.Solve, the fewer flops on one processor), and Distribute splits the
// same X column-wise over P ranks, where the solve of a rank's block
// (Dist.SolveOn) is a pair of fully concurrent matrix-vector products plus
// one log₂P-depth combine restricted to the separator-crossing columns —
// total communication volume O(n^{(d-1)/d} log₂ P), against the O(n log₂ P)
// of the redundant banded-LU and row-distributed A⁻¹ baselines it is
// compared with in Fig. 6. Dist.SolveNatural is a rank's whole solve in
// natural order, as the distributed Navier–Stokes step calls it: the sum of
// the ranks' right-hand sides, the permutation to blocks, the block solve,
// and the solution back on every rank. Each rank's SolveWork holds its
// scratch and records and traces its solves through the rank's registry and
// tracer.
package coarse

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/instrument"
	"repro/internal/la"
)

// Poisson5pt builds the n = nx*ny five-point Dirichlet Poisson matrix on a
// regular grid, the Fig. 6 model problem.
func Poisson5pt(nx, ny int) *la.CSR {
	b := la.NewCOO(nx*ny, nx*ny)
	id := func(ix, iy int) int { return iy*nx + ix }
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := id(ix, iy)
			b.Add(i, i, 4)
			if ix > 0 {
				b.Add(i, id(ix-1, iy), -1)
			}
			if ix < nx-1 {
				b.Add(i, id(ix+1, iy), -1)
			}
			if iy > 0 {
				b.Add(i, id(ix, iy-1), -1)
			}
			if iy < ny-1 {
				b.Add(i, id(ix, iy+1), -1)
			}
		}
	}
	return b.ToCSR()
}

// XXT is a factored coarse problem, set up once and shared read-only: the
// nested-dissection order of A, its sparse Cholesky factor L (A permuted to
// that order is L Lᵀ) and X = L⁻ᵀ. The serial machine solves through L
// (Solve); Distribute splits X over P ranks for the distributed solve.
type XXT struct {
	N       int
	Perm    []int // nested-dissection permutation, perm[new] = old
	InvPerm []int // its inverse, inv[old] = new

	chol *la.SparseChol
	x    *la.SparseCols // X = L⁻ᵀ in permuted index space

	// FactorSeconds is the wall-clock time of ordering + factorization +
	// inverse-factor formation in NewXXT (the setup half of the paper's
	// solve/factor split).
	FactorSeconds float64
}

// NewXXT orders the SPD matrix with nested dissection (grid-aware when
// nx*ny == a.Rows and nx > 0), factorizes it and forms the sparse inverse
// factor.
func NewXXT(a *la.CSR, nx, ny int) (*XXT, error) {
	tFactor := time.Now()
	n := a.Rows
	var perm []int
	if nx > 0 && nx*ny == n {
		perm = la.NDPermGrid(nx, ny)
	} else {
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			for q := a.Ptr[i]; q < a.Ptr[i+1]; q++ {
				if j := a.Col[q]; j != i {
					adj[i] = append(adj[i], j)
				}
			}
		}
		perm = la.NDPermGraph(adj)
	}
	chol, err := la.FactorSparseChol(a.Permute(perm))
	if err != nil {
		return nil, fmt.Errorf("coarse: XXT factorization: %w", err)
	}
	s := &XXT{N: n, Perm: perm, InvPerm: la.InvPerm(perm), chol: chol, x: chol.InverseTransposeCols()}
	s.FactorSeconds = time.Since(tFactor).Seconds()
	return s, nil
}

// Solve computes x = A⁻¹ b (natural ordering) by L's two triangular solves
// in the factor's order, with rp (length N) as scratch, and returns the flop
// count, 4·nnz(L). This is the serial machine's solve: L has fewer nonzeros
// than X, so it is the cheaper of the two on one processor.
func (s *XXT) Solve(x, b, rp []float64) int64 {
	inv := s.InvPerm
	for old, v := range b {
		rp[inv[old]] = v
	}
	s.chol.Solve(rp, rp)
	for old := range x {
		x[old] = rp[inv[old]]
	}
	return int64(4 * s.chol.NNZ())
}

// NNZ returns the stored size of the inverse factor X.
func (s *XXT) NNZ() int { return s.x.NNZ() }

// Dist is X distributed over P ranks: rank r holds the rows
// [BlockLo[r], BlockHi[r]) of the permuted dofs. A column whose support stays
// inside its owner's block is local; the rest are cross columns, combined by
// the solve's one log₂P allreduce. Every rank reads the one Dist.
type Dist struct {
	*XXT

	BlockLo []int // dof-block [BlockLo[p], BlockHi[p]) per rank (permuted ids)
	BlockHi []int

	crossOf   []int // column -> compact cross index, -1 if local
	CrossCols []int // cross column ids
}

// Distribute partitions the permuted dofs into p contiguous blocks and
// classifies X's columns by them. The factor is shared, not copied.
func (s *XXT) Distribute(p int) *Dist {
	n := s.N
	d := &Dist{XXT: s, BlockLo: make([]int, p), BlockHi: make([]int, p)}
	for r := 0; r < p; r++ {
		d.BlockLo[r] = r * n / p
		d.BlockHi[r] = (r + 1) * n / p
	}
	rankOf := func(i int) int {
		// Blocks are near-uniform; locate by division then fix up.
		r := i * p / n
		if r >= p {
			r = p - 1
		}
		for i < d.BlockLo[r] {
			r--
		}
		for i >= d.BlockHi[r] {
			r++
		}
		return r
	}
	d.crossOf = make([]int, n)
	for j := 0; j < n; j++ {
		idx := s.x.Idx[j]
		d.crossOf[j] = -1
		if len(idx) == 0 {
			continue
		}
		lo, hi := int(idx[0]), int(idx[len(idx)-1])
		if rankOf(lo) != rankOf(hi) {
			d.crossOf[j] = len(d.CrossCols)
			d.CrossCols = append(d.CrossCols, j)
		}
	}
	return d
}

// CrossCount returns the number of separator-crossing columns (the combine
// payload per log P stage, ≈ 3·n^{1/2} in 2D).
func (s *Dist) CrossCount() int { return len(s.CrossCols) }

// SolveWork is one rank's side of a Dist: the columns of X its solves touch,
// found once, the scratch of its solves, reusable across calls so the
// steady-state coarse solve allocates nothing, and the metric and trace
// handles of its rank. Each simulated rank needs its own (the solves run
// concurrently on all ranks).
type SolveWork struct {
	own   []int      // the local columns the rank owns, ascending
	cross []crossWin // the cross columns meeting the rank's rows, in CrossCols order

	zCross []float64
	zOwn   []float64 // by own: Xᵀb over each owned column
	b, u   []float64 // the rank's block of the right-hand side and of the solution

	solveTime *instrument.Timer  // host time of each block solve
	vtime     instrument.VTime   // virtual time of each block solve, summed over ranks
	tracer    *instrument.Tracer // a span per block solve on the rank's track
}

// crossWin is a cross column's share in one rank's solves: the column j,
// its index ci in CrossCols, and its entries [k0, k1) that fall in the
// rank's rows.
type crossWin struct {
	ci, j, k0, k1 int
}

// NewSolveWork lists the columns of X that r's block touches, sizes a
// SolveWork for the block and takes its handles from r's registry and
// tracer; rank 0 records the factor's one-off cost and its cross-column
// count as gauges.
func (s *Dist) NewSolveWork(r *comm.Rank) *SolveWork {
	reg, lo, hi := r.Registry(), s.BlockLo[r.ID], s.BlockHi[r.ID]
	if r.ID == 0 {
		reg.Gauge("coarse/xxt.factor_seconds").Set(s.FactorSeconds)
		reg.Gauge("coarse/xxt.cross_cols").Set(float64(len(s.CrossCols)))
	}
	w := &SolveWork{
		zCross:    make([]float64, len(s.CrossCols)),
		b:         make([]float64, hi-lo),
		u:         make([]float64, hi-lo),
		solveTime: reg.Timer("coarse/xxt.solve"),
		vtime:     instrument.VTime{Timer: reg.Timer("coarse/xxt.vtime")},
		tracer:    r.Tracer(),
	}
	// A local column's support lies in its owner's block, which holds the
	// column's own dof: the rank owns exactly the local columns of its block.
	for j := lo; j < hi; j++ {
		if s.crossOf[j] < 0 {
			w.own = append(w.own, j)
		}
	}
	for ci, j := range s.CrossCols {
		if k0, k1 := rowWindow(s.x.Idx[j], lo, hi); k0 < k1 {
			w.cross = append(w.cross, crossWin{ci, j, k0, k1})
		}
	}
	w.zOwn = make([]float64, len(w.own))
	return w
}

// SolveNatural is the coarse solve of one rank in natural order: it sums
// every rank's r0 (length N) and solves, x0 = A⁻¹ Σ_ranks r0, leaving the
// full solution on every rank. The sum is one N-word allreduce; the rank
// gathers its block of the sum through Perm, solves it with SolveOn, and a
// second N-word allreduce of the blocks, scattered back through InvPerm,
// gives every rank x0. r0 is the second allreduce's buffer: it is left
// overwritten.
func (s *Dist) SolveNatural(r *comm.Rank, x0, r0 []float64, w *SolveWork) {
	r.Allreduce(r0, comm.OpSum)
	lo, hi := s.BlockLo[r.ID], s.BlockHi[r.ID]
	for i := lo; i < hi; i++ {
		w.b[i-lo] = r0[s.Perm[i]]
	}
	u := s.SolveOn(r, w.b, w)
	clear(r0)
	copy(r0[lo:hi], u)
	r.Allreduce(r0, comm.OpSum)
	for old := range x0 {
		x0[old] = r0[s.InvPerm[old]]
	}
}

// SolveOn executes the distributed solve on one simulated rank, with w, its
// rank's work. bLocal is the rank's block of the right-hand side in permuted
// order (b[BlockLo[r]:BlockHi[r]]); the rank's block of the solution is
// returned, aliasing w and valid until w's next solve. Local floating-point
// work is charged to the rank's virtual clock; the combine over the cross
// columns is a real recursive-doubling allreduce.
func (s *Dist) SolveOn(r *comm.Rank, bLocal []float64, w *SolveWork) []float64 {
	t0 := w.solveTime.Begin()
	defer w.solveTime.End(t0)
	v0 := r.Time
	if w.tracer.WantsV(r.ID) {
		defer func() {
			w.tracer.SpanV(r.ID, "coarse/xxt.solve", "coarse", v0, r.Time,
				map[string]any{"cross_cols": len(s.CrossCols), "n": s.N})
		}()
	}
	defer func() { w.vtime.Record(r.Time - v0) }()
	lo, hi := s.BlockLo[r.ID], s.BlockHi[r.ID]
	// Stage 1: z = Xᵀ b. The columns the rank owns are complete from its
	// rows; the cross columns get partial sums from every rank they meet,
	// and stay +0 where they meet none.
	var flops int64
	for t, j := range w.own {
		var sum float64
		idx, val := s.x.Idx[j], s.x.Val[j]
		for k, i := range idx {
			sum += val[k] * bLocal[int(i)-lo]
		}
		w.zOwn[t] = sum
		flops += int64(2 * len(idx))
	}
	zCross := w.zCross
	clear(zCross)
	for _, c := range w.cross {
		idx, val := s.x.Idx[c.j], s.x.Val[c.j]
		var sum float64
		for k := c.k0; k < c.k1; k++ {
			sum += val[k] * bLocal[int(idx[k])-lo]
		}
		zCross[c.ci] = sum
		flops += int64(2 * (c.k1 - c.k0))
	}
	r.Compute(0, flops)
	// Stage 2: combine the cross-column partials (log₂P stages, payload =
	// CrossCount words — the separator volume of the paper's bound).
	r.Allreduce(zCross, comm.OpSum)
	// Stage 3: u = X z restricted to my rows, the owned columns in ascending
	// order, then the cross columns in CrossCols order.
	u := w.u[:hi-lo]
	clear(u)
	flops = 0
	for t, j := range w.own {
		z := w.zOwn[t]
		idx, val := s.x.Idx[j], s.x.Val[j]
		for k, i := range idx {
			u[int(i)-lo] += val[k] * z
		}
		flops += int64(2 * len(idx))
	}
	for _, c := range w.cross {
		z := zCross[c.ci]
		if z == 0 {
			continue
		}
		idx, val := s.x.Idx[c.j], s.x.Val[c.j]
		for k := c.k0; k < c.k1; k++ {
			u[int(idx[k])-lo] += val[k] * z
		}
		flops += int64(2 * (c.k1 - c.k0))
	}
	r.Compute(0, flops)
	return u
}

// rowWindow returns the half-open index range [k0, k1) of the sorted row
// list idx falling inside [lo, hi).
func rowWindow(idx []int32, lo, hi int) (int, int) {
	k0 := sort.Search(len(idx), func(k int) bool { return int(idx[k]) >= lo })
	k1 := sort.Search(len(idx), func(k int) bool { return int(idx[k]) >= hi })
	return k0, k1
}

// RedundantLU is the redundant banded-solve baseline: every rank holds the
// full banded Cholesky factor and solves the whole system after an
// allreduce assembles the full right-hand side (the O(n log₂ P)
// communication the paper contrasts with).
type RedundantLU struct {
	N   int
	P   int
	fac *la.BandedCholesky
}

// NewRedundantLU factorizes the banded SPD matrix (half-bandwidth bw taken
// from the natural grid ordering).
func NewRedundantLU(a *la.CSR, bw, p int) (*RedundantLU, error) {
	n := a.Rows
	band := make([][]float64, bw+1)
	for d := range band {
		band[d] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for q := a.Ptr[i]; q < a.Ptr[i+1]; q++ {
			j := a.Col[q]
			if j <= i && i-j <= bw {
				band[i-j][j] = a.Val[q]
			}
		}
	}
	fac, err := la.FactorBanded(band, n, bw)
	if err != nil {
		return nil, err
	}
	return &RedundantLU{N: n, P: p, fac: fac}, nil
}

// BaselineWork is one rank's scratch for the baseline solves (RedundantLU,
// DistInv): the full N-word right-hand side the allreduce assembles and, on
// a rank that wants the result, the full N-word solution. Build it once per
// rank and reuse it, so a steady-state baseline solve allocates nothing.
type BaselineWork struct {
	rhs, x []float64
}

// NewBaselineWork sizes a BaselineWork for n unknowns; only a work built
// with wantResult carries the solution, and only a solve with such a work
// runs the numeric solve.
func NewBaselineWork(n int, wantResult bool) *BaselineWork {
	w := &BaselineWork{rhs: make([]float64, n)}
	if wantResult {
		w.x = make([]float64, n)
	}
	return w
}

// SolveOn runs the redundant solve on one rank: allreduce the padded RHS,
// then a full local banded solve; returns the rank's solution block,
// aliasing w and valid until w's next solve. The solve flops are always
// charged to the virtual clock; with a w built without wantResult the
// (redundant, bit-identical) numeric solve is skipped and nil returned, so
// that large-P simulations do not pay P times the real work of one solve.
func (s *RedundantLU) SolveOn(r *comm.Rank, bLocal []float64, w *BaselineWork) []float64 {
	lo, hi := r.ID*s.N/s.P, (r.ID+1)*s.N/s.P // the rank's block, as Distribute's
	full := w.rhs
	clear(full)
	copy(full[lo:hi], bLocal)
	r.Allreduce(full, comm.OpSum)
	r.Compute(0, s.fac.SolveFlops())
	if w.x == nil {
		return nil
	}
	s.fac.Solve(w.x, full)
	return w.x[lo:hi]
}

// DistInv is the row-distributed A⁻¹ baseline: each rank conceptually holds
// n/P dense rows of A⁻¹ and needs the full right-hand side. The dense
// matvec flops are charged to the virtual clock; the numerical values are
// produced through a shared sparse factorization so the baseline stays
// exact without materializing the O(n²) inverse.
type DistInv struct {
	N   int
	P   int
	fac *la.SparseChol
}

// NewDistInv prepares the baseline.
func NewDistInv(a *la.CSR, p int) (*DistInv, error) {
	fac, err := la.FactorSparseChol(a)
	if err != nil {
		return nil, err
	}
	return &DistInv{N: a.Rows, P: p, fac: fac}, nil
}

// SolveOn runs the distributed-inverse solve on one rank, with w as
// RedundantLU.SolveOn takes it. The dense row-block matvec cost (2·n·n/P
// flops) is charged to the virtual clock; the numeric values are produced
// through the shared sparse factorization only when w carries the solution
// (they are what the dense rows would give).
func (s *DistInv) SolveOn(r *comm.Rank, bLocal []float64, w *BaselineWork) []float64 {
	lo, hi := r.ID*s.N/s.P, (r.ID+1)*s.N/s.P // the rank's block, as Distribute's
	full := w.rhs
	clear(full)
	copy(full[lo:hi], bLocal)
	r.Allreduce(full, comm.OpSum)
	// Dense row-block matvec cost: 2 * n * (rows I own).
	r.Compute(0, int64(2*s.N*(hi-lo)))
	if w.x == nil {
		return nil
	}
	s.fac.Solve(w.x, full)
	return w.x[lo:hi]
}

// LatencyBound returns the paper's lower-bound curve 2·α·log₂P for a
// contention-free fan-in/fan-out binary tree.
func LatencyBound(m comm.Machine) float64 {
	return 2 * m.Latency * float64(bits.Len(uint(m.P-1)))
}
