package ns

import (
	"fmt"
	"math"

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
	for c := 0; c < s.dim; c++ {
		s.viscousRHS(s.bArena[c], c, gamma, tilde, beta, tNew)
		// Dirichlet lifting: start from boundary values, solve the masked
		// correction.
		copy(ustar[c], s.U[c])
		s.setDirichletComponent(ustar[c], c, tNew)
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
	for i := range rp {
		rp[i] *= -h2
	}
	if s.enclosed {
		s.deflatePressure(rp)
	}
	dp := s.dpArena
	for i := range dp {
		dp[i] = 0
	}
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
		g := s.gp[c]
		scale := cfg.Dt / beta
		u := ustar[c]
		for i := range u {
			u[i] += scale * g[i] / s.bAssemL[i]
		}
	}
	s.mach.Charge(int64(3 * s.dim * s.n))
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
		for c, u := range s.next {
			s.applyFilter(u)
			if c < s.dim {
				s.setDirichletComponent(u, c, tNew)
			}
		}
		s.mach.Charge(s.filtF * int64(len(s.elems)*len(s.next)))
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
	// rather than holding the previous one (ROADMAP item 2 has this defect;
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
	for i := range dp {
		s.P[i] += dp[i]
	}
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

// viscousRHS fills b with component c's unassembled Helmholtz right-hand
// side from the subintegrated levels: the BDF history term, forcing,
// extrapolated buoyancy (the levels' scalar slot), and the lagged pressure
// gradient (already in s.gp). Step assembles the components together.
func (s *Solver) viscousRHS(b []float64, c int, gamma []float64, tilde [][][]float64, beta, tNew float64) {
	cfg := s.Cfg
	for i := range b {
		var sum float64
		for q := range tilde {
			sum += gamma[q] * tilde[q][c][i]
		}
		b[i] = s.b[i] * sum / cfg.Dt
	}
	if cfg.Forcing != nil {
		for i := range b {
			fx, fy, fz := cfg.Forcing(s.x[i], s.y[i], s.z[i], tNew)
			f := [3]float64{fx, fy, fz}
			b[i] += s.b[i] * f[c]
		}
	}
	if cfg.Scalar != nil && cfg.Scalar.Buoyancy[c] != 0 {
		// Explicit extrapolated buoyancy from the subintegrated scalar.
		for i := range b {
			var sum float64
			for q := range tilde {
				sum += gamma[q] * tilde[q][s.dim][i]
			}
			b[i] += s.b[i] * cfg.Scalar.Buoyancy[c] * sum / beta
		}
	}
	gp := s.gp[c]
	for i := range b {
		b[i] += gp[i]
	}
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
		for i := range b {
			b[i] -= hu[c][i]
		}
		applyMask(b, s.helm.mask)
		clear(hu[c])
	}
	opt.Tol, opt.Relative, opt.MaxIter = s.Cfg.VTol, true, 1000
	opt.Precond, opt.Scratch = s.jacobi, s.cgScratch
	solver.CGBatch(s.helmOp, s.dotShare, s.mach.SumN, s.duArena[:m], s.bArena[:m], opt, s.cgStats[:m])
	for c, u := range us {
		for i, d := range s.duArena[c] {
			u[i] += d
		}
	}
	return s.cgStats[:m]
}

// setDirichletComponent writes the Dirichlet boundary value of component c.
func (s *Solver) setDirichletComponent(u []float64, c int, t float64) {
	if s.mask == nil || s.Cfg.DirichletVal == nil {
		return
	}
	for i, mk := range s.mask {
		if mk == 0 {
			bu, bv, bw := s.Cfg.DirichletVal(s.x[i], s.y[i], s.z[i], t)
			vals := [3]float64{bu, bv, bw}
			u[i] = vals[c]
		}
	}
}

// applyFilter filters a velocity-grid field in place, element by element.
func (s *Solver) applyFilter(u []float64) {
	s.curIn = u
	s.mach.ForElements(s.filterLoop)
	s.curIn = nil
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
