package ns

import (
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/solver"
)

// bdf returns the BDF coefficients for the effective order at this step:
// beta (coefficient of u^n / Δt) and gamma[q] (coefficient of ũ^{n-q} / Δt).
func bdf(order int) (beta float64, gamma []float64) {
	switch order {
	case 1:
		return 1, []float64{1}
	case 2:
		return 1.5, []float64{2, -0.5}
	default:
		return 11.0 / 6.0, []float64{3, -1.5, 1.0 / 3.0}
	}
}

// Step advances the solution by one time step and reports statistics. It is
// the one implementation of the operator-splitting step — convect → viscous →
// pressure → (scalar) → filter → rotate and commit — for every Machine: all
// solvers of a run call it in lockstep, and every decision in it derives
// from values joined over the run, so they all take the same path.
func (s *Solver) Step() (st StepStats, err error) {
	cfg := s.Cfg
	st.Step = s.step + 1
	tNew := s.time + cfg.Dt
	s.mach.Begin(SecStep)
	defer func() { s.mach.End(SecStep, st) }()

	// Effective order ramps up over the first steps.
	order := cfg.Order
	if avail := len(s.hist) + 1; order > avail {
		order = avail
	}
	beta, gamma := bdf(order)

	// --- Convective subintegration (OIFS): ũ^{n-q} for q = 1..order. ---
	s.mach.Begin(SecConvect)
	cflDt, rate := s.cflLimit()
	st.CFL = rate * cfg.Dt // convective CFL of the full step
	// cflDt comes from a maximum joined over the run: every solver fails here together.
	if need := substepsNeeded(float64(order)*cfg.Dt, cflDt); need > maxSubsteps {
		s.mach.End(SecConvect, st)
		return st, fmt.Errorf("ns: CFL %.3g needs %.6g convective substeps, more than the cap of %d", st.CFL, need, maxSubsteps)
	}
	// Time levels, newest first: index 0 is the current one (before this step
	// completes). Every stepped field rides the same subintegration, the
	// scalar too (explicit ũT, so buoyancy needs no implicit coupling).
	levels := append(s.levelBuf[:0], s.fields)
	levels = append(levels, s.hist...)
	tilde := s.tilde[:order]
	for q := 1; q <= order; q++ {
		st.Substeps += s.advectInto(tilde[q-1], levels[q-1], float64(q)*cfg.Dt, cflDt, levels)
	}
	s.mach.End(SecConvect, st)
	s.instr.substeps.Add(int64(st.Substeps))
	s.instr.cfl.Set(st.CFL)

	// --- Momentum right-hand sides, then the Helmholtz solves of all
	// components as one lockstep batch: every component iterates as it would
	// alone, its inner products travel with the others', and the phase costs
	// the reductions of its slowest component (DESIGN.md "One step, two
	// backends"). ---
	s.mach.Begin(SecViscous)
	st.ViscousConverged = true
	h2 := beta / cfg.Dt
	s.helm = &s.velHelm[order-1]
	// Pressure gradient of p^{n-1} (incremental splitting).
	s.GradientT(s.gp[:s.dim], s.P)
	ustar := s.ustar
	force := s.forcing(tNew)
	for c := 0; c < s.dim; c++ {
		s.viscousRHS(s.bArena[c], c, gamma, tilde, beta, force[c])
		// Dirichlet lifting: start from boundary values, solve the masked
		// correction.
		copy(ustar[c], s.U[c])
	}
	s.setDirichlet(ustar[:s.dim], tNew)
	if force[0] != nil {
		s.putBuf(force[:s.dim]...)
	}
	s.assemble(s.bArena[:s.dim], s.mask)
	vstats := s.helmholtzSolve(ustar[:s.dim], solver.Options{
		Time: s.instr.viscousCG, Iters: s.instr.viscousIters, IterHist: s.instr.viscousIterH,
		Tracer: s.tracer, TraceName: "helmholtz.cg"})
	for c, stats := range vstats {
		st.HelmholtzIters[c] = stats.Iterations
		st.ViscousConverged = st.ViscousConverged && stats.Converged
		if !stats.Converged && stats.FinalRes > 1e-6 {
			s.mach.End(SecViscous, st)
			return st, fmt.Errorf("ns: Helmholtz solve for component %d failed (res %g)", c, stats.FinalRes)
		}
	}
	s.mach.End(SecViscous, st)

	// --- Pressure correction: E δp = -(β/Δt) D u*. ---
	s.mach.Begin(SecPressure)
	rp := s.rpArena
	s.Divergence(rp, ustar)
	la.Scale(-h2, rp)
	if s.enclosed {
		s.deflatePressure(rp)
	}
	dp := s.dpArena
	clear(dp)
	popt := solver.Options{Tol: cfg.PTol, MaxIter: cfg.PMaxIter, History: s.history != nil,
		Time: s.instr.pressureCG, Iters: s.instr.pressureIters, IterHist: s.instr.pressureIterH,
		Tracer: s.tracer, TraceName: "pressure.cg", Converged: s.instr.pressConv,
		Scratch: s.cgScratch, Precond: s.pPrecondOp}
	var pstats solver.Stats
	if s.projector != nil {
		pstats = s.projector.ProjectAndSolve(dp, rp, popt)
		st.ProjectionBasis = s.projector.Len()
	} else {
		solver.CGBatch(s.applyEs, s.pressureDotShare, s.mach.SumN, [][]float64{dp}, [][]float64{rp}, popt, s.cgStats[:1])
		pstats = s.cgStats[0]
	}
	st.PressureIters = pstats.Iterations
	st.PressureRes0 = pstats.InitialRes
	st.PressureResFinal = pstats.FinalRes
	st.PressureConverged = pstats.Converged
	if !pstats.Converged {
		s.instr.nonconv.Inc()
	}

	// --- Velocity update: u^n = u* + (Δt/β) M B̃⁻¹ QQᵀ Dᵀ δp. ---
	s.GradientT(s.gp[:s.dim], dp)
	s.assemble(s.gp[:s.dim], s.mask)
	for c := 0; c < s.dim; c++ {
		g := s.gp[c] // u += ((Δt/β)·g)/B̃, in place in the scratch g
		la.Scale(cfg.Dt/beta, g)
		la.Quot(g, g, s.bAssemL)
		la.Axpy(1, g, ustar[c])
	}
	s.mach.Charge(0, int64(3*s.dim*s.n))
	s.mach.End(SecPressure, st)

	// --- Scalar Helmholtz solve. ---
	if s.scalarHelm != nil {
		s.mach.Begin(SecScalar)
		st.ScalarIters, err = s.scalarSolve(tilde, gamma, tNew)
		s.mach.End(SecScalar, st)
		if err != nil {
			return st, err
		}
	}

	// --- Filter, rotate history, commit. ---
	s.mach.Begin(SecFilter)
	var filterRemoved float64
	if s.history != nil && s.filter != nil {
		for c := 0; c < s.dim; c++ {
			filterRemoved += s.mach.Sum(s.dotShare(ustar[c], ustar[c]))
		}
	}
	if s.filter != nil {
		for _, u := range s.next {
			s.applyFilter(u)
		}
		s.setDirichlet(s.next[:s.dim], tNew)
		s.charge(s.filtF.times(len(s.elems) * len(s.next)))
		if s.history != nil {
			for c := 0; c < s.dim; c++ {
				filterRemoved -= s.mach.Sum(s.dotShare(ustar[c], ustar[c]))
			}
		}
	}
	s.mach.End(SecFilter, st)
	// History rotation keeps up to Order-1 previous levels. The ring reuses
	// the retired oldest level's arrays once the window is full, so
	// steady-state rotation allocates nothing. It copies the current level:
	// the velocity before its commit below, but the scalar as solved in place
	// above, so the scalar's newest history level repeats its new value
	// rather than holding the previous one (ROADMAP item 4 has this defect;
	// the convection golden digest pins it).
	if keep := cfg.Order - 1; keep > 0 {
		var prev [][]float64
		if len(s.hist) >= keep {
			prev = s.hist[len(s.hist)-1]
			s.hist = s.hist[:len(s.hist)-1]
		} else {
			for range s.fields {
				prev = append(prev, make([]float64, s.n))
			}
		}
		for c, u := range s.fields {
			copy(prev[c], u)
		}
		s.hist = append(s.hist, nil)
		copy(s.hist[1:], s.hist)
		s.hist[0] = prev
	}
	for c := 0; c < s.dim; c++ {
		copy(s.U[c], ustar[c])
	}
	la.Axpy(1, dp, s.P)
	if s.enclosed {
		s.deflatePressure(s.P)
	}
	s.step++
	s.time = tNew
	st.Time = s.time
	s.instr.steps.Inc()

	// Divergence (NaN) detection scans every owned velocity entry and must be
	// a uniform decision: the flags join in a max over the run.
	var bad float64
	for c := 0; c < s.dim && bad == 0; c++ {
		for _, v := range s.U[c] {
			if math.IsNaN(v) {
				bad = 1
				break
			}
		}
	}
	if s.mach.Max(bad) > 0 {
		return st, fmt.Errorf("ns: solution diverged (NaN) at step %d", s.step)
	}
	if s.history != nil {
		div := s.divArena
		s.Divergence(div, s.U)
		var maxDiv float64
		for _, v := range div {
			if a := math.Abs(v); a > maxDiv {
				maxDiv = a
			}
		}
		s.history.Append(StepRecord{
			StepStats:       st,
			PressureResHist: append([]float64(nil), pstats.ResHist...),
			MaxDivergence:   s.mach.Max(maxDiv),
			FilterEnergy:    filterRemoved,
		})
	}
	return st, nil
}

// forcing evaluates Cfg.Forcing once per node at time t into one pooled
// buffer per velocity component (all nil without forcing); the caller
// returns them with putBuf.
func (s *Solver) forcing(t float64) (f [3][]float64) {
	if s.Cfg.Forcing == nil {
		return f
	}
	for c := 0; c < s.dim; c++ {
		f[c] = s.getBuf()
	}
	for i := range f[0] {
		fx, fy, fz := s.Cfg.Forcing(s.x[i], s.y[i], s.z[i], t)
		v := [3]float64{fx, fy, fz}
		for c := 0; c < s.dim; c++ {
			f[c][i] = v[c]
		}
	}
	return f
}

// viscousRHS fills b with component c's unassembled Helmholtz right-hand
// side from the subintegrated levels: the BDF history term, the forcing f
// (nil: none), extrapolated buoyancy (the levels' scalar slot), and the
// lagged pressure gradient (already in s.gp). Step assembles the components
// together.
func (s *Solver) viscousRHS(b []float64, c int, gamma []float64, tilde [][][]float64, beta float64, f []float64) {
	cfg := s.Cfg
	s.bdfHistory(b, c, gamma, tilde)
	if f != nil {
		la.AddProd(b, s.b, f) // b += B⊙f
	}
	if cfg.Scalar != nil && cfg.Scalar.Buoyancy[c] != 0 {
		// Explicit extrapolated buoyancy from the subintegrated scalar:
		// b += ((B·buoyancy)⊙Σ_q γ_q T̃^{n-q})/β.
		sum, bb := s.getBuf(), s.getBuf()
		bdfSum(sum, s.dim, gamma, tilde)
		copy(bb, s.b)
		la.Scale(cfg.Scalar.Buoyancy[c], bb)
		la.Prod(sum, bb, sum)
		la.Unscale(beta, sum)
		la.Axpy(1, sum, b)
		s.putBuf(sum, bb)
	}
	la.Axpy(1, s.gp[c], b)
}

// bdfSum sets dst = Σ_q γ_q ũ^{n-q} over field slot of the subintegrated
// levels, summed from +0 in q's order.
func bdfSum(dst []float64, slot int, gamma []float64, tilde [][][]float64) {
	clear(dst)
	for q := range tilde {
		la.Axpy(gamma[q], tilde[q][slot], dst)
	}
}

// bdfHistory sets b = (B⊙bdfSum)/Δt, the BDF history term of field slot's
// unassembled Helmholtz right-hand side.
func (s *Solver) bdfHistory(b []float64, slot int, gamma []float64, tilde [][][]float64) {
	bdfSum(b, slot, gamma, tilde)
	la.Prod(b, s.b, b)
	la.Unscale(s.Cfg.Dt, b)
}

// helmholtzSolve finishes the lifted Helmholtz solves H us[c] = bArena[c] for
// the operator s.helm, as one Jacobi-preconditioned lockstep CG batch: us[c]
// holds the boundary lift on entry and the solution on return, bArena[c] the
// assembled right-hand side (overwritten). opt carries the caller's
// instrumentation; the statistics are valid until the next solve.
func (s *Solver) helmholtzSolve(us [][]float64, opt solver.Options) []solver.Stats {
	m := len(us)
	// The lifts' images go to the increments, which CG then starts from zero.
	hu := s.duArena[:m]
	s.helmholtz(hu, us, s.helm)
	for c := range us {
		b := s.bArena[c]
		la.Axpy(-1, hu[c], b)
		applyMask(b, s.helm.mask)
		clear(hu[c])
	}
	opt.Tol, opt.Relative, opt.MaxIter = s.Cfg.VTol, true, 1000
	opt.Precond, opt.Scratch = s.jacobi, s.cgScratch
	solver.CGBatch(s.helmOp, s.dotShare, s.mach.SumN, s.duArena[:m], s.bArena[:m], opt, s.cgStats[:m])
	for c, u := range us {
		la.Axpy(1, s.duArena[c], u)
	}
	return s.cgStats[:m]
}

// setDirichlet writes the Dirichlet boundary values of the velocity
// components us[c], one DirichletVal evaluation per masked node.
func (s *Solver) setDirichlet(us [][]float64, t float64) {
	if s.mask == nil || s.Cfg.DirichletVal == nil {
		return
	}
	for i, mk := range s.mask {
		if mk == 0 {
			bu, bv, bw := s.Cfg.DirichletVal(s.x[i], s.y[i], s.z[i], t)
			vals := [3]float64{bu, bv, bw}
			for c, u := range us {
				u[i] = vals[c]
			}
		}
	}
}

// applyFilter filters a velocity-grid field in place, element by element.
func (s *Solver) applyFilter(u []float64) {
	np := s.M.Np
	for li := range s.elems {
		s.D.FilterElement(s.filter, u[li*np:(li+1)*np], s.work.sem)
	}
}

// cflLimit returns the stable substep size for explicit advection and the
// current grid CFL number per unit time (max |u|/h over the run).
func (s *Solver) cflLimit() (dt float64, rate float64) {
	var umax float64
	for c := 0; c < s.dim; c++ {
		for _, v := range s.U[c] {
			if a := math.Abs(v); a > umax {
				umax = a
			}
		}
	}
	umax = s.mach.Max(umax)
	if umax == 0 {
		return math.Inf(1), 0
	}
	rate = umax / s.minSpacing
	return s.Cfg.SubCFL / rate, rate
}
