// Package solver provides the Krylov machinery of Sec. 5: preconditioned
// conjugate gradients with pluggable operator/preconditioner/inner-product
// (so the same code drives element-local SEM vectors and plain global
// vectors), and the projection-onto-previous-solutions accelerator for
// successive right-hand sides (Fischer 1998): the solution is first
// projected onto an A-orthonormal basis of up to L previous solutions and
// CG solves only for the perturbation, cutting pressure iterations by
// 2.5–5x (Fig. 4 of the paper).
package solver

import (
	"math"

	"repro/internal/instrument"
	"repro/internal/la"
)

// Operator applies a linear operator: out = A·in. out never aliases in.
type Operator func(out, in []float64)

// BatchOperator applies one linear operator to several vectors at once:
// outs[i] = A·ins[i]. No out aliases an in. It is how CGBatch applies its
// operator, once per pass with every live system, so an operator that
// communicates (a gather–scatter) does so once for the whole batch.
type BatchOperator func(outs, ins [][]float64)

// Batch adapts a single-vector operator: each vector in turn.
func (a Operator) Batch() BatchOperator {
	return func(outs, ins [][]float64) {
		for i, out := range outs {
			a(out, ins[i])
		}
	}
}

// Dot is one solver's share of an inner product (for element-local SEM
// storage it must count each global node once); the Join that travels with it
// makes it whole. A solver that holds the whole problem (CG) has it all.
type Dot func(u, v []float64) float64

// Join sums a short vector of shares over the solvers of a run, slot by slot,
// in one reduction — any number of independent inner products for the latency
// of one — each slot bitwise as a reduction of its own would leave it.
type Join func(vals []float64)

func (j Join) sum(vals []float64) {
	if len(vals) > 0 {
		j(vals)
	}
}

// Stats reports one linear solve.
type Stats struct {
	Iterations int
	Converged  bool
	InitialRes float64 // ‖b - A x₀‖ before iterating (after projection)
	FinalRes   float64
	ResHist    []float64 // residual norm after each iteration (incl. initial)
}

// Options controls CG.
type Options struct {
	Tol      float64 // convergence when ‖r‖ ≤ Tol (absolute) or Tol·‖b‖ (relative)
	Relative bool
	MaxIter  int
	Precond  Operator // nil = identity
	History  bool     // record ResHist

	// Instrumentation (optional; nil handles no-op): accumulated solve
	// wall time and iteration count across calls sharing these handles.
	Time  *instrument.Timer
	Iters *instrument.Counter
	// Converged is set to 1/0 after each solve (last-solve convergence
	// indicator; nil no-ops).
	Converged *instrument.Gauge
	// IterHist observes the iteration count of each solve, so the report
	// carries the distribution (p50/p99 of CG iterations per step) and not
	// just the total. Ranks may share one: it is then their merged
	// distribution.
	IterHist *instrument.Histogram
	// Tracer wraps the whole solve in a wall-clock span named TraceName
	// (default "cg") whose end carries every system's Stats. Leave nil when
	// many solves run concurrently on one track (the begin/end pairs would
	// interleave).
	Tracer    *instrument.Tracer
	TraceName string

	// Scratch, when non-nil, supplies the CG work vectors and batch state so
	// repeated solves (e.g. one per time step) allocate nothing. A Scratch
	// must not be shared by solves running concurrently.
	Scratch *Scratch
}

// Scratch holds the work vectors and bookkeeping of a batch of systems; it
// grows on demand and may be reused across solves of any size and width.
type Scratch struct {
	sys      []cgSys
	live     []*cgSys    // the systems still iterating
	vals     []float64   // one reduction's inner products
	outs, in [][]float64 // one batch application's operands
}

// cgSys is one system of a batch: its unknown and right-hand side, the five
// CG work vectors and what CG carries between iterations.
type cgSys struct {
	x, b           []float64
	r, z, p, q, xb []float64
	tol, rz, best  float64
	warm           bool // x₀ ≠ 0
	st             Stats
}

// start points one system at each (xs[i], bs[i]), growing storage if needed,
// and makes all of them live.
func (w *Scratch) start(xs, bs [][]float64) {
	m, n := len(bs), len(bs[0])
	if len(w.sys) < m {
		w.sys = append(w.sys, make([]cgSys, m-len(w.sys))...)
		w.vals = make([]float64, 2*m)
		w.outs, w.in = make([][]float64, 0, m), make([][]float64, 0, m)
	}
	w.live = w.live[:0]
	for i := range bs {
		s := &w.sys[i]
		s.x, s.b = xs[i], bs[i]
		for _, v := range []*[]float64{&s.r, &s.z, &s.p, &s.q, &s.xb} {
			if cap(*v) < n {
				*v = make([]float64, n)
			}
			*v = (*v)[:n]
		}
		w.live = append(w.live, s)
	}
}

// giveUp ends a system without convergence after it iterations, at its best.
func (s *cgSys) giveUp(it int) {
	s.st.Iterations = it
	s.st.FinalRes = s.best
	copy(s.x, s.xb)
}

// CG solves A x = b by preconditioned conjugate gradients, starting from the
// supplied x (commonly zero): CGBatch on one system, dot whole, nothing to join.
func CG(apply Operator, dot Dot, x, b []float64, opt Options) Stats {
	var st [1]Stats
	CGBatch(apply.Batch(), dot, func([]float64) {}, [][]float64{x}, [][]float64{b}, opt, st[:])
	return st[0]
}

// CGBatch solves the systems A xs[i] = bs[i] of one operator (equal lengths)
// by preconditioned conjugate gradients in lockstep, from the supplied xs, and
// reports each in sts[i]. Every system does exactly the arithmetic of a solve
// on its own and leaves the batch when it finishes; the inner products travel
// together, one slot per live system, and apply is called once per pass with
// every live system: the batch costs the reductions and the operator
// exchanges of its longest member. opt.Time and the span bracket the batch,
// the other instruments are fed once per system.
func CGBatch(apply BatchOperator, dot Dot, join Join, xs, bs [][]float64, opt Options, sts []Stats) {
	t0 := opt.Time.Begin()
	var sp instrument.Span
	if opt.Tracer != nil {
		name := opt.TraceName
		if name == "" {
			name = "cg"
		}
		sp = opt.Tracer.Begin(instrument.PidWall, 0, name, "solver")
	}
	w := opt.Scratch
	if w == nil {
		w = &Scratch{}
	}
	w.start(xs, bs)
	w.cg(apply, dot, join, opt)
	for i := range bs {
		st := w.sys[i].st
		sts[i] = st
		opt.Iters.Add(int64(st.Iterations))
		opt.IterHist.Observe(float64(st.Iterations))
		if st.Converged {
			opt.Converged.Set(1)
		} else {
			opt.Converged.Set(0)
		}
	}
	if opt.Tracer != nil {
		sp.EndWith(map[string]any{"systems": append([]Stats(nil), sts[:len(bs)]...)})
	}
	opt.Time.End(t0)
}

// cg iterates the live systems to their exits. Each loop over the systems
// leaves a system's share of its next inner product in the slot of its
// position among the systems that stay; one join per loop completes them.
// Operator images are taken for all the systems that need one in a single
// apply between two such loops.
func (w *Scratch) cg(apply BatchOperator, dot Dot, join Join, opt Options) {
	precond := opt.Precond
	if precond == nil {
		precond = func(out, in []float64) { copy(out, in) }
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = len(w.live[0].b)
	}

	// r = b - A x, then ‖r‖² and, for a relative tolerance, ‖b‖² of every
	// system in one reduction. From x₀ = 0, r is b and one slot is both.
	outs, ins := w.outs[:0], w.in[:0]
	for _, s := range w.live {
		s.warm = false
		for _, v := range s.x {
			if v != 0 {
				s.warm = true
				break
			}
		}
		if s.warm {
			outs, ins = append(outs, s.q), append(ins, s.x)
		}
	}
	if len(outs) > 0 {
		apply(outs, ins)
	}
	vals := w.vals[:0]
	for _, s := range w.live {
		if s.warm {
			la.AxpyTo(s.r, -1, s.q, s.b) // r = b - q
			if opt.Relative {
				vals = append(vals, dot(s.b, s.b))
			}
		} else {
			copy(s.r, s.b)
		}
		vals = append(vals, dot(s.r, s.r))
	}
	join.sum(vals)
	k := 0
	for j, s := range w.live {
		s.tol = opt.Tol
		if opt.Relative {
			s.tol *= math.Sqrt(vals[k])
			if s.warm {
				k++
			}
		}
		vals[j] = vals[k] // ‖r‖² into the system's slot
		k++
	}

	// Each pass examines the residuals it finds (pass 0: the initial ones) and
	// takes one step. Every exit that is not a clean convergence returns the
	// best iterate seen, not the last one. When the tolerance sits below what
	// finite precision can deliver, CG idles at the roundoff floor where p·q
	// can be arbitrarily small but positive; one step with the resulting huge
	// alpha catapults x far from the solution while the residual jumps several
	// orders. Which iteration that happens on depends on rounding, so without
	// the restore the returned x is effectively arbitrary — SPMD runs would
	// disagree with serial by O(1e-3) from reduction-order roundoff alone. All
	// decisions derive from joined inner products: uniform across SPMD ranks.
	for it := 0; len(w.live) > 0; it++ {
		keep := w.live[:0]
		for k, s := range w.live {
			res := math.Sqrt(vals[k])
			if it == 0 {
				s.st = Stats{InitialRes: res}
			}
			if opt.History {
				s.st.ResHist = append(s.st.ResHist, res)
			}
			if res <= s.tol {
				s.st.Iterations = it
				s.st.Converged = true
				s.st.FinalRes = res
				continue
			}
			if it == 0 || res < s.best {
				s.best = res
				copy(s.xb, s.x)
			} else if !(res <= 1e4*s.best) {
				// Four orders above the best achieved (or NaN): diverging in
				// roundoff. Hand back the best iterate.
				s.giveUp(it)
				continue
			}
			precond(s.z, s.r)
			vals[len(keep)] = dot(s.r, s.z)
			keep = append(keep, s)
		}
		w.live = keep
		join.sum(vals[:len(keep)])
		if it == maxIter { // out of steps: the survivors give up below
			break
		}
		outs, ins = w.outs[:0], w.in[:0]
		for k, s := range w.live {
			p, z, rz := s.p, s.z, vals[k]
			if it == 0 {
				copy(p, z)
			} else {
				la.AxpyTo(p, rz/s.rz, p, z) // p = z + βp
			}
			s.rz = rz
			outs, ins = append(outs, s.q), append(ins, p)
		}
		if len(outs) > 0 {
			apply(outs, ins)
		}
		for k, s := range w.live {
			vals[k] = dot(s.p, s.q)
		}
		join.sum(vals[:len(w.live)])
		keep = w.live[:0]
		for k, s := range w.live {
			pq := vals[k]
			if pq <= 0 {
				// Operator not SPD on this subspace (or breakdown): stop.
				s.giveUp(it)
				continue
			}
			alpha := s.rz / pq
			la.Axpy(alpha, s.p, s.x)
			la.Axpy(-alpha, s.q, s.r) // r -= αq
			vals[len(keep)] = dot(s.r, s.r)
			keep = append(keep, s)
		}
		w.live = keep
		join.sum(vals[:len(keep)])
	}
	for _, s := range w.live {
		s.giveUp(maxIter)
	}
}

// Projector implements projection onto previous solutions. The basis
// {x₁…x_l} is kept A-orthonormal (x_iᵀ A x_j = δ_ij) together with the
// stored products A x_i, so the best previous-solution approximation of a
// new right-hand side costs only inner products, and maintaining the basis
// costs one extra operator application per solve that iterates — the
// paper's "two matrix-vector products in E per timestep".
type Projector struct {
	L     int // capacity (the paper uses L ~ 25)
	apply Operator
	batch BatchOperator // apply, as CGBatch takes it
	dot   Dot
	join  Join
	xs    [][]float64 // A-orthonormal basis
	axs   [][]float64 // A·basis

	// Allocation-free steady state: retired basis vectors go on a freelist
	// for update() to reuse, and the per-solve work vectors live here.
	free   [][]float64
	alphas []float64
	xbar   []float64
	rhs    []float64

	// Instrumentation (optional; nil handles no-op).
	ProjectTime *instrument.Timer // projection + basis-update overhead
	BasisSize   *instrument.Gauge // basis dimension used per solve
	Savings     *instrument.Gauge // fraction of ‖b‖ removed by projection
}

// NewProjector creates a projector with basis capacity l; dot, join as CGBatch's.
func NewProjector(l int, apply Operator, dot Dot, join Join) *Projector {
	return &Projector{L: l, apply: apply, batch: apply.Batch(), dot: dot, join: join, alphas: make([]float64, l+1)}
}

// Len returns the current basis size.
func (p *Projector) Len() int { return len(p.xs) }

// State returns deep copies of the A-orthonormal basis and its operator
// images, the projector's whole cross-solve memory: restoring them into a
// fresh projector reproduces the projected solves bitwise. Used by the
// checkpoint/restart machinery.
func (p *Projector) State() (xs, axs [][]float64) {
	for k := range p.xs {
		xs = append(xs, append([]float64(nil), p.xs[k]...))
		axs = append(axs, append([]float64(nil), p.axs[k]...))
	}
	return xs, axs
}

// Restore replaces the basis with deep copies of a previously captured
// State, discarding whatever the projector currently holds.
func (p *Projector) Restore(xs, axs [][]float64) {
	p.Reset()
	for k := range xs {
		x := p.grab(len(xs[k]))
		copy(x, xs[k])
		ax := p.grab(len(axs[k]))
		copy(ax, axs[k])
		p.xs = append(p.xs, x)
		p.axs = append(p.axs, ax)
	}
}

// Reset discards the basis (the vectors are kept for reuse).
func (p *Projector) Reset() {
	p.free = append(p.free, p.xs...)
	p.free = append(p.free, p.axs...)
	p.xs, p.axs = p.xs[:0], p.axs[:0]
}

// grab returns a length-n work vector, reusing a retired basis vector when
// one is available.
func (p *Projector) grab(n int) []float64 {
	if k := len(p.free); k > 0 {
		v := p.free[k-1]
		p.free = p.free[:k-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]float64, n)
}

// whole is one inner product, joined on its own (alphas is free by then).
func (p *Projector) whole(u, v []float64) float64 {
	p.alphas[0] = p.dot(u, v)
	p.join(p.alphas[:1])
	return p.alphas[0]
}

// ProjectAndSolve performs the full projected solve of A x = b:
// project onto the basis, run CG on the perturbation, update the basis with
// the new solution, and return the total solution and the CG stats. When the
// projection alone meets the tolerance (CG takes no iteration) the solution
// lies in the span of the basis and carries nothing new: the basis is left
// as it is — no operator application, no orthogonalisation, and a full basis
// is not discarded while it still answers — so such a solve costs one batched
// inner product of l slots and CG's residual norm, whatever l is.
func (p *Projector) ProjectAndSolve(x, b []float64, opt Options) Stats {
	n, l := len(b), len(p.xs)
	t0 := p.ProjectTime.Begin()
	// One reduction for all coefficients ⟨xₖ, b⟩, and ‖b‖² for the savings gauge.
	alphas := p.alphas[:l]
	for k, xk := range p.xs {
		alphas[k] = p.dot(xk, b)
	}
	if p.Savings != nil {
		alphas = append(alphas, p.dot(b, b))
	}
	p.join.sum(alphas)
	if cap(p.xbar) < n {
		p.xbar = make([]float64, n)
		p.rhs = make([]float64, n)
	}
	xbar, rhs := p.xbar[:n], p.rhs[:n]
	clear(xbar)
	copy(rhs, b)
	for k, a := range alphas[:l] {
		la.Axpy(a, p.xs[k], xbar)
		la.Axpy(-a, p.axs[k], rhs)
	}
	p.ProjectTime.End(t0)
	p.BasisSize.Set(float64(l))
	clear(x)
	var sts [1]Stats
	CGBatch(p.batch, p.dot, p.join, [][]float64{x}, [][]float64{rhs}, opt, sts[:])
	st := sts[0]
	if p.Savings != nil && alphas[l] > 0 {
		p.Savings.Set(1 - st.InitialRes/math.Sqrt(alphas[l]))
	}
	t1 := p.ProjectTime.Begin()
	la.Axpy(1, xbar, x)
	if st.Iterations > 0 {
		p.update(x)
	}
	p.ProjectTime.End(t1)
	return st
}

// update A-orthonormalizes x against the basis and appends it; when the
// basis is full it restarts from the current solution alone. The
// orthogonalization is classical Gram–Schmidt applied twice (CGS2), each
// pass's l coefficients ⟨A xₖ, w⟩ joined at once: the first pass's travel with
// the candidate's norm ‖w‖²_A, the second pass's alone, and the final norm is
// a third join — three reductions per update whatever l is (two on an empty
// basis), where modified Gram–Schmidt needs one per coefficient. The second
// pass restores the orthogonality a single classical pass loses on a
// near-dependent candidate.
func (p *Projector) update(x []float64) {
	n := len(x)
	if len(p.xs) >= p.L {
		p.Reset()
	}
	l := len(p.xs)
	w := p.grab(n)
	copy(w, x)
	aw := p.grab(n)
	p.apply(aw, w) // the one extra operator application per solve
	var norm0 float64
	for pass := 0; pass < 2; pass++ {
		betas := p.alphas[:l]
		for k, axk := range p.axs {
			betas[k] = p.dot(axk, w)
		}
		if pass == 0 {
			betas = append(betas, p.dot(w, aw))
		}
		p.join.sum(betas)
		if pass == 0 {
			norm0 = betas[l]
		}
		for k, beta := range betas[:l] {
			la.Axpy(-beta, p.xs[k], w)
			la.Axpy(-beta, p.axs[k], aw)
		}
	}
	norm2 := p.whole(w, aw)
	// Reject candidates that are (numerically) inside the span: normalizing
	// roundoff noise would poison the basis and destabilize later solves.
	if norm2 <= 0 || math.IsNaN(norm2) || norm2 <= 1e-12*norm0 {
		p.free = append(p.free, w, aw)
		return
	}
	inv := 1 / math.Sqrt(norm2)
	la.Scale(inv, w)
	la.Scale(inv, aw)
	p.xs = append(p.xs, w)
	p.axs = append(p.axs, aw)
}
