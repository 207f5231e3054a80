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
)

// Operator applies a linear operator: out = A·in. out never aliases in.
type Operator func(out, in []float64)

// Dot is an inner product (for element-local SEM storage it must count each
// global node once).
type Dot func(u, v []float64) float64

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
	// just the total. Safe to share across ranks: Observe is atomic.
	IterHist *instrument.Histogram
	// Tracer wraps the whole solve in a wall-clock span named TraceName
	// (default "cg") carrying iterations/convergence args. Leave nil when
	// many solves run concurrently on one track (the begin/end pairs would
	// interleave).
	Tracer    *instrument.Tracer
	TraceName string

	// Scratch, when non-nil, supplies the four CG work vectors so repeated
	// solves (e.g. one per time step) allocate nothing. A Scratch must not
	// be shared by solves running concurrently.
	Scratch *Scratch
}

// Scratch holds the CG work vectors; it grows on demand and may be reused
// across solves of different sizes.
type Scratch struct {
	r, z, p, q, xb []float64
}

// vectors returns the five length-n work arrays, growing the backing
// storage if needed.
func (s *Scratch) vectors(n int) (r, z, p, q, xb []float64) {
	if cap(s.r) < n {
		s.r = make([]float64, n)
		s.z = make([]float64, n)
		s.p = make([]float64, n)
		s.q = make([]float64, n)
		s.xb = make([]float64, n)
	}
	return s.r[:n], s.z[:n], s.p[:n], s.q[:n], s.xb[:n]
}

// CG solves A x = b by preconditioned conjugate gradients, starting from
// the supplied x (commonly zero). Work arrays are allocated internally.
func CG(apply Operator, dot Dot, x, b []float64, opt Options) Stats {
	t0 := opt.Time.Begin()
	var sp instrument.Span
	if opt.Tracer != nil {
		name := opt.TraceName
		if name == "" {
			name = "cg"
		}
		sp = opt.Tracer.Begin(instrument.PidWall, 0, name, "solver")
	}
	st := cg(apply, dot, x, b, opt)
	if opt.Tracer != nil {
		sp.EndWith(map[string]any{
			"iterations": st.Iterations,
			"converged":  st.Converged,
			"final_res":  st.FinalRes,
		})
	}
	opt.Time.End(t0)
	opt.Iters.Add(int64(st.Iterations))
	opt.IterHist.Observe(float64(st.Iterations))
	if st.Converged {
		opt.Converged.Set(1)
	} else {
		opt.Converged.Set(0)
	}
	return st
}

func cg(apply Operator, dot Dot, x, b []float64, opt Options) Stats {
	n := len(b)
	var r, z, p, q, xb []float64
	if opt.Scratch != nil {
		r, z, p, q, xb = opt.Scratch.vectors(n)
	} else {
		r = make([]float64, n)
		z = make([]float64, n)
		p = make([]float64, n)
		q = make([]float64, n)
		xb = make([]float64, n)
	}

	// r = b - A x.
	xNonZero := false
	for _, v := range x {
		if v != 0 {
			xNonZero = true
			break
		}
	}
	if xNonZero {
		apply(q, x)
		for i := range r {
			r[i] = b[i] - q[i]
		}
	} else {
		copy(r, b)
	}
	tol := opt.Tol
	if opt.Relative {
		tol *= math.Sqrt(dot(b, b))
	}
	res := math.Sqrt(dot(r, r))
	st := Stats{InitialRes: res}
	if opt.History {
		st.ResHist = append(st.ResHist, res)
	}
	if res <= tol {
		st.Converged = true
		st.FinalRes = res
		return st
	}
	precond := opt.Precond
	if precond == nil {
		precond = func(out, in []float64) { copy(out, in) }
	}
	precond(z, r)
	copy(p, z)
	rz := dot(r, z)
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = n
	}
	// Every exit that is not a clean convergence returns the best iterate
	// seen, not the last one. When the tolerance sits below what finite
	// precision can deliver, CG idles at the roundoff floor where p·q can
	// be arbitrarily small but positive; a single step with the resulting
	// huge alpha catapults x far from the solution while the residual jumps
	// several orders. Which iteration that happens on depends on rounding,
	// so without the best-iterate restore the returned x is effectively
	// arbitrary — SPMD runs would disagree with serial by O(1e-3) from
	// reduction-order roundoff alone. All decisions below derive from
	// collective dots, so they are uniform across SPMD ranks.
	best := res
	copy(xb, x)
	for it := 1; it <= maxIter; it++ {
		apply(q, p)
		pq := dot(p, q)
		if pq <= 0 {
			// Operator not SPD on this subspace (or breakdown): stop.
			st.Iterations = it - 1
			st.FinalRes = best
			copy(x, xb)
			return st
		}
		alpha := rz / pq
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		res = math.Sqrt(dot(r, r))
		if opt.History {
			st.ResHist = append(st.ResHist, res)
		}
		if res <= tol {
			st.Iterations = it
			st.Converged = true
			st.FinalRes = res
			return st
		}
		if res < best {
			best = res
			copy(xb, x)
		} else if !(res <= 1e4*best) {
			// Four orders above the best achieved (or NaN): diverging in
			// roundoff. Hand back the best iterate.
			st.Iterations = it
			st.FinalRes = best
			copy(x, xb)
			return st
		}
		precond(z, r)
		rz2 := dot(r, z)
		beta := rz2 / rz
		rz = rz2
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	st.Iterations = maxIter
	st.FinalRes = best
	copy(x, xb)
	return st
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
	dot   Dot
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

// NewProjector creates a projector with basis capacity l.
func NewProjector(l int, apply Operator, dot Dot) *Projector {
	return &Projector{L: l, apply: apply, dot: dot}
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

// ProjectAndSolve performs the full projected solve of A x = b:
// project onto the basis, run CG on the perturbation, update the basis with
// the new solution, and return the total solution and the CG stats. When the
// projection alone meets the tolerance (CG takes no iteration) the solution
// lies in the span of the basis and carries nothing new: the basis is left
// as it is — no operator application, no orthogonalisation, and a full basis
// is not discarded while it still answers — so such a solve costs its l
// inner products whatever l is.
func (p *Projector) ProjectAndSolve(x, b []float64, opt Options) Stats {
	n := len(b)
	t0 := p.ProjectTime.Begin()
	if cap(p.alphas) < p.L {
		p.alphas = make([]float64, p.L)
	}
	alphas := p.alphas[:len(p.xs)]
	for k, xk := range p.xs {
		alphas[k] = p.dot(xk, b)
	}
	if cap(p.xbar) < n {
		p.xbar = make([]float64, n)
		p.rhs = make([]float64, n)
	}
	xbar, rhs := p.xbar[:n], p.rhs[:n]
	for i := range xbar {
		xbar[i] = 0
	}
	copy(rhs, b)
	for k := range p.xs {
		a := alphas[k]
		xk, axk := p.xs[k], p.axs[k]
		for i := 0; i < n; i++ {
			xbar[i] += a * xk[i]
			rhs[i] -= a * axk[i]
		}
	}
	p.ProjectTime.End(t0)
	p.BasisSize.Set(float64(len(p.xs)))
	if p.Savings != nil {
		nb := math.Sqrt(p.dot(b, b))
		nr := math.Sqrt(p.dot(rhs, rhs))
		if nb > 0 {
			p.Savings.Set(1 - nr/nb)
		}
	}
	for i := range x {
		x[i] = 0
	}
	st := CG(p.apply, p.dot, x, rhs, opt)
	t1 := p.ProjectTime.Begin()
	for i := range x {
		x[i] += xbar[i]
	}
	if st.Iterations > 0 {
		p.update(x)
	}
	p.ProjectTime.End(t1)
	return st
}

// update A-orthonormalizes x against the basis and appends it; when the
// basis is full it restarts from the current solution alone.
func (p *Projector) update(x []float64) {
	n := len(x)
	if len(p.xs) >= p.L {
		p.Reset()
	}
	w := p.grab(n)
	copy(w, x)
	aw := p.grab(n)
	p.apply(aw, w) // the one extra operator application per solve
	norm0 := p.dot(w, aw)
	// Two Gram-Schmidt passes for robustness against near-dependence.
	for pass := 0; pass < 2; pass++ {
		for k := range p.xs {
			beta := p.dot(p.axs[k], w)
			xk, axk := p.xs[k], p.axs[k]
			for i := 0; i < n; i++ {
				w[i] -= beta * xk[i]
				aw[i] -= beta * axk[i]
			}
		}
	}
	norm2 := p.dot(w, aw)
	// Reject candidates that are (numerically) inside the span: normalizing
	// roundoff noise would poison the basis and destabilize later solves.
	if norm2 <= 0 || math.IsNaN(norm2) || norm2 <= 1e-12*norm0 {
		p.free = append(p.free, w, aw)
		return
	}
	inv := 1 / math.Sqrt(norm2)
	for i := 0; i < n; i++ {
		w[i] *= inv
		aw[i] *= inv
	}
	p.xs = append(p.xs, w)
	p.axs = append(p.axs, aw)
}
