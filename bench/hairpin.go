package main

// hairpin.go is the hairpin3d workload: the 3-D boundary-layer box with a
// hemispherical roughness element, 6×4×3 elements (K=72), N=5, Δt=0.05,
// filter 0.1, one worker (the pass runs on one processor; what the worker
// pool buys is the sem.pool_speedup rung), and PressurePrecond "auto" so that the
// trial-solve tournament picks the preconditioner (Chebyshev–Jacobi today:
// several E applies per iteration, Schwarz, FDM and XXT idle in steady
// state). "auto" is deliberate: a new variant can only show end to end if
// the tournament may pick it.

import (
	"repro/internal/flowcases"
	"repro/internal/ns"
	"repro/internal/solver"
)

// seededHairpin draws the Reynolds number from [840, 860]. The session
// default of 1600 blows up silently near step 200 (CFL 0.25 → 6e4, no
// error), so the benchmark stays at 850 ± 10; iterations per step differ
// by under one percent across that band.
func seededHairpin(seed int64) float64 {
	return 840 + 20*newRand(seed).Float64()
}

func runHairpin3D(o options) (*report, error) {
	re := seededHairpin(o.seed)
	hc := flowcases.HairpinConfig{Nx: 6, Ny: 4, Nz: 3, N: 5, Re: re, Dt: 0.05, FilterA: 0.1,
		Workers: 1, Precond: ns.PrecondAuto}
	plan := stepPlan{warm: 20, cycle: 20, alternate: true, deadline: o.deadline()}
	plan.timed = plan.cycle * o.units(0.47) // ≈ 9.4 steps/s on the reference machine
	setups := 2
	if o.tiny {
		hc.Nx, hc.Ny, hc.Nz = 3, 2, 2
		plan.warm, plan.cycle, plan.timed, setups = 4, 2, 4, 1
	}
	if o.trace {
		setups = 1
	}

	build := func() (*ns.Solver, error) {
		solver.ResetPrecondTable() // every set-up pays the tournament
		cfg, init, err := flowcases.HairpinSpec(hc)
		if err != nil {
			return nil, err
		}
		s, err := ns.New(cfg)
		if err != nil {
			return nil, err
		}
		s.SetVelocity(init)
		return s, nil
	}
	s, setup, err := repeatSetup(setups, build)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	rep := newReport(o)
	rep.note("inputs: Re=%.4f; %d warm-up + %d timed steps; tournament picked %q", re, plan.warm, plan.timed, s.PrecondName())
	tr, trk := newTracer(o)
	rng := newRand(o.seed)
	w := &stepWindow{}
	if err := warmUp(s, plan, w); err != nil {
		return nil, err
	}
	if err := timedWindow(s, plan, w, trk); err != nil {
		return nil, err
	}
	// Validation is per step (finite fields, CFL < 1, converged pressure
	// solve): the benchmark must never time a diverged run.
	rep.steps(w)
	rep.check(finite([]float64{flowcases.KineticEnergy(s)}), "kinetic energy %.6g is finite", flowcases.KineticEnergy(s))

	if !o.trace {
		rep.steppingEndToEnd(o.clk, setup, w, plan.cycle)
		return rep, nil
	}
	coverage, err := rep.serialLayers(o, s, w, trk, rng)
	if err != nil {
		return nil, err
	}
	rep.stepTraceSummary(coverage, w)
	if err := rep.foreignLayers(o, trk, true, true); err != nil {
		return nil, err
	}
	return rep, rep.finishTrace(o, tr)
}
