package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

func denseOp(a []float64, n int) Operator {
	return func(out, in []float64) { la.MatVec(out, a, in, n, n) }
}

func plainDot(u, v []float64) float64 { return la.Dot(u, v) }

// noJoin is the Join of a solver that holds the whole problem.
func noJoin([]float64) {}

func spd(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[k*n+i] * m[k*n+j]
			}
			a[i*n+j] = s
		}
		a[i*n+i] += 1
	}
	return a
}

func TestCGSolvesSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 40
	a := spd(rng, n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	la.MatVec(b, a, xTrue, n, n)
	x := make([]float64, n)
	st := CG(denseOp(a, n), plainDot, x, b, Options{Tol: 1e-12, Relative: true, MaxIter: 500, History: true})
	if !st.Converged {
		t.Fatalf("CG failed: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("CG solution wrong at %d", i)
		}
	}
	if len(st.ResHist) != st.Iterations+1 {
		t.Errorf("history length %d, iterations %d", len(st.ResHist), st.Iterations)
	}
	if st.ResHist[0] != st.InitialRes {
		t.Error("history[0] should be the initial residual")
	}
}

func TestCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 30
	a := spd(rng, n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	la.MatVec(b, a, xTrue, n, n)
	// Start exactly at the solution: zero iterations.
	x := append([]float64(nil), xTrue...)
	st := CG(denseOp(a, n), plainDot, x, b, Options{Tol: 1e-10, MaxIter: 100})
	if st.Iterations != 0 || !st.Converged {
		t.Errorf("warm start should converge immediately: %+v", st)
	}
}

func TestCGZeroRHS(t *testing.T) {
	n := 10
	a := spd(rand.New(rand.NewSource(3)), n)
	x := make([]float64, n)
	st := CG(denseOp(a, n), plainDot, x, make([]float64, n), Options{Tol: 1e-12, MaxIter: 10})
	if !st.Converged || st.Iterations != 0 {
		t.Errorf("zero RHS should converge instantly: %+v", st)
	}
}

func TestCGMaxIter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 50
	a := spd(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	st := CG(denseOp(a, n), plainDot, x, b, Options{Tol: 1e-30, MaxIter: 3})
	if st.Converged || st.Iterations != 3 {
		t.Errorf("expected max-iter stop: %+v", st)
	}
}

func TestProjectorReducesIterations(t *testing.T) {
	// A sequence of slowly-varying right-hand sides, as in time stepping:
	// projection must cut the iteration count substantially (Fig. 4).
	rng := rand.New(rand.NewSource(5))
	n := 120
	a := spd(rng, n)
	apply := denseOp(a, n)
	base := make([]float64, n)
	drift := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
		drift[i] = rng.NormFloat64()
	}
	rhs := func(step int) []float64 {
		b := make([]float64, n)
		tt := float64(step) * 0.01
		for i := range b {
			b[i] = base[i] + tt*drift[i] + 0.001*math.Sin(float64(i)+tt)
		}
		return b
	}
	opt := Options{Tol: 1e-8, MaxIter: 1000}
	steps := 30
	var plainIters, projIters int
	x := make([]float64, n)
	for s := 0; s < steps; s++ {
		for i := range x {
			x[i] = 0
		}
		st := CG(apply, plainDot, x, rhs(s), opt)
		plainIters += st.Iterations
	}
	proj := NewProjector(20, apply, plainDot, noJoin)
	for s := 0; s < steps; s++ {
		st := proj.ProjectAndSolve(x, rhs(s), opt)
		projIters += st.Iterations
		// Verify the returned solution really solves the system.
		r := make([]float64, n)
		apply(r, x)
		b := rhs(s)
		for i := range r {
			r[i] -= b[i]
		}
		if la.Nrm2(r) > 1e-6 {
			t.Fatalf("step %d: projected solution residual %g", s, la.Nrm2(r))
		}
	}
	if projIters*2 > plainIters {
		t.Errorf("projection did not cut iterations: %d vs %d", projIters, plainIters)
	}
	if proj.Len() == 0 {
		t.Error("projector basis empty after solves")
	}
}

func TestProjectorRestartAtCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 40
	a := spd(rng, n)
	apply := denseOp(a, n)
	proj := NewProjector(5, apply, plainDot, noJoin)
	x := make([]float64, n)
	for s := 0; s < 12; s++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		proj.ProjectAndSolve(x, b, Options{Tol: 1e-9, MaxIter: 500})
		if proj.Len() > 5 {
			t.Fatalf("basis exceeded capacity: %d", proj.Len())
		}
	}
	proj.Reset()
	if proj.Len() != 0 {
		t.Error("Reset did not clear the basis")
	}
}

func TestProjectorLeavesBasisWhenProjectionAnswers(t *testing.T) {
	// A right-hand side the basis already answers takes no CG iteration and
	// must cost no operator application and leave the basis alone — a full
	// one included, which an unconditional update would have discarded.
	rng := rand.New(rand.NewSource(8))
	n := 40
	a := spd(rng, n)
	applies := 0
	apply := func(out, in []float64) {
		applies++
		denseOp(a, n)(out, in)
	}
	const l = 3
	proj := NewProjector(l, apply, plainDot, noJoin)
	opt := Options{Tol: 1e-9, MaxIter: 500}
	x := make([]float64, n)
	var last []float64
	for s := 0; s < l; s++ {
		last = make([]float64, n)
		for i := range last {
			last[i] = rng.NormFloat64()
		}
		proj.ProjectAndSolve(x, last, opt)
	}
	if proj.Len() != l {
		t.Fatalf("basis holds %d vectors after %d solves, want it full", proj.Len(), l)
	}
	want := append([]float64(nil), x...)
	applies = 0
	st := proj.ProjectAndSolve(x, last, opt)
	if st.Iterations != 0 || !st.Converged {
		t.Fatalf("repeated right-hand side: %+v, want converged without iterating", st)
	}
	if applies != 0 {
		t.Errorf("%d operator applications, want none", applies)
	}
	if proj.Len() != l {
		t.Errorf("basis holds %d vectors after a solve it answered, want %d", proj.Len(), l)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("solution moved at %d: %g, want %g", i, x[i], want[i])
		}
	}
}

func TestProjectorBasisAOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30
	a := spd(rng, n)
	apply := denseOp(a, n)
	proj := NewProjector(10, apply, plainDot, noJoin)
	x := make([]float64, n)
	for s := 0; s < 6; s++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		proj.ProjectAndSolve(x, b, Options{Tol: 1e-10, MaxIter: 500})
	}
	for i := range proj.xs {
		for j := range proj.xs {
			v := plainDot(proj.xs[i], proj.axs[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(v-want) > 1e-6 {
				t.Fatalf("basis not A-orthonormal: (%d,%d)=%g", i, j, v)
			}
		}
	}
}

// TestProjectorUpdateJoinsThreeTimes: a basis update is classical
// Gram–Schmidt applied twice, so it joins three times whatever the basis
// holds (the first pass's coefficients with the candidate's norm, the second
// pass's, the final norm), and twice on an empty basis, which has no
// coefficients; modified Gram–Schmidt joined 2l + 2 times. Filled to L with
// a near-dependent candidate along the way, the basis is A-orthonormal to
// 1e-12 and has turned that candidate away.
func TestProjectorUpdateJoinsThreeTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, l = 30, 8
	a := spd(rng, n)
	apply := denseOp(a, n)
	var joins reductions
	proj := NewProjector(l, apply, plainDot, joins.join)
	random := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	update := func(x []float64, grows bool) {
		t.Helper()
		had := proj.Len()
		joins = 0
		proj.update(x)
		want := 3
		if had == 0 || had == l {
			want = 2
		}
		if int(joins) != want {
			t.Errorf("an update on a basis of %d joins %d times, want %d", had, joins, want)
		}
		if grows != (proj.Len() == had%l+1) {
			t.Errorf("an update on a basis of %d leaves %d vectors; candidate accepted: %v", had, proj.Len(), !grows)
		}
	}
	for proj.Len() < l {
		if proj.Len() == l/2 {
			// Inside the span but for a part of 1e-9: rejected.
			near := random()
			for i := range near {
				near[i] *= 1e-9
			}
			for k, xk := range proj.xs {
				for i := range near {
					near[i] += float64(k+1) * xk[i]
				}
			}
			update(near, false)
		}
		update(random(), true)
	}
	ax := make([]float64, n)
	for j, xj := range proj.xs {
		apply(ax, xj)
		for i, xi := range proj.xs {
			want := 0.0
			if i == j {
				want = 1
			}
			if v := plainDot(xi, ax); math.Abs(v-want) > 1e-12 {
				t.Errorf("x%dᵀ A x%d = %.17g, want %g", i, j, v, want)
			}
		}
	}
	update(random(), true) // full: restarts from the candidate alone
}

func TestCGJacobiPreconditioner(t *testing.T) {
	// Strongly diagonal-scaled SPD system: Jacobi should nearly solve it.
	n := 60
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = float64(1 + i*i)
		if i+1 < n {
			a[i*n+i+1] = 0.1
			a[(i+1)*n+i] = 0.1
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	pre := func(out, in []float64) {
		for i := range in {
			out[i] = in[i] / a[i*n+i]
		}
	}
	x1 := make([]float64, n)
	st1 := CG(denseOp(a, n), plainDot, x1, b, Options{Tol: 1e-10, Relative: true, MaxIter: 500})
	x2 := make([]float64, n)
	st2 := CG(denseOp(a, n), plainDot, x2, b, Options{Tol: 1e-10, Relative: true, MaxIter: 500, Precond: pre})
	if st2.Iterations >= st1.Iterations {
		t.Errorf("Jacobi PCG %d iters vs CG %d", st2.Iterations, st1.Iterations)
	}
}

// With a Scratch supplied and History off, repeated CG solves must not
// allocate, and must produce bitwise the same answer as the allocating path.
func TestCGScratchAllocFreeAndIdentical(t *testing.T) {
	n := 64
	diag := make([]float64, n)
	b := make([]float64, n)
	for i := range diag {
		diag[i] = 2 + float64(i%7)
		b[i] = math.Sin(float64(i))
	}
	apply := func(out, in []float64) {
		for i := range out {
			out[i] = diag[i] * in[i]
		}
	}
	dot := func(u, v []float64) float64 {
		var s float64
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	opt := Options{Tol: 1e-12, Relative: true, MaxIter: 200}
	x1 := make([]float64, n)
	CG(apply, dot, x1, b, opt)

	sc := &Scratch{}
	opt.Scratch = sc
	x2 := make([]float64, n)
	CG(apply, dot, x2, b, opt) // warm-up sizes the scratch
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("scratch CG changed result at %d: %g vs %g", i, x2[i], x1[i])
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range x2 {
			x2[i] = 0
		}
		CG(apply, dot, x2, b, opt)
	})
	if allocs > 0 {
		t.Errorf("CG with Scratch allocated %v times per solve, want 0", allocs)
	}
}

// The projector must reach an allocation-free steady state: after the basis
// fills and restarts once, subsequent solves reuse retired vectors.
func TestProjectorSteadyStateAllocFree(t *testing.T) {
	n := 48
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 3 + float64(i%5)
	}
	apply := func(out, in []float64) {
		for i := range out {
			out[i] = diag[i] * in[i]
		}
	}
	dot := func(u, v []float64) float64 {
		var s float64
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	p := NewProjector(4, apply, dot, noJoin)
	opt := Options{Tol: 1e-10, Relative: true, MaxIter: 200, Scratch: &Scratch{}}
	x := make([]float64, n)
	b := make([]float64, n)
	solve := func(k int) {
		for i := range b {
			b[i] = math.Sin(float64(i*k + 1)) // fresh RHS each call
		}
		p.ProjectAndSolve(x, b, opt)
	}
	// Fill the basis past one restart so the freelist is primed.
	for k := 0; k < 3*p.L; k++ {
		solve(k)
	}
	k := 1000
	allocs := testing.AllocsPerRun(8, func() {
		solve(k)
		k++
	})
	if allocs > 0 {
		t.Errorf("steady-state ProjectAndSolve allocated %v times, want 0", allocs)
	}
}
