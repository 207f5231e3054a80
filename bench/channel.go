package main

// channel.go is the channel2d workload: the paper's Table-1 Tollmien–
// Schlichting channel, K=5×3, N=9, Δt=0.003125, BDF2, unfiltered, the
// Schwarz(FDM)+XXT preconditioner and one worker — the paper's algorithm
// on the paper's case and the plain single-threaded baseline.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/flowcases"
	"repro/internal/ns"
	"repro/internal/orrsomm"
)

// channelInputs are the seeded inputs of the channel cases: the amplitude
// of the TS wave and its streamwise phase. The pressure tolerance is
// absolute, so iterations per step follow log(eps): a ±5 % band keeps the
// work of two seeds within one percent of each other, which the driver's
// across-seed spread rule needs; the phase moves the wave relative to the
// element grid at constant amplitude. The mesh is uniform and periodic in x,
// so only the offset within an element matters, and it matters: on the 16×4,
// N=5 mesh of dist_p64 the median step takes 65–68 ms with the wave offset by
// 0.16–0.72 of an element and 73 ms with it on an element boundary. The band
// stays clear of the boundary.
type channelInputs struct {
	eps   float64
	phase float64 // streamwise offset, fraction of an element width, in [0.2, 0.7)
}

func seededChannel(seed int64) channelInputs {
	rng := newRand(seed)
	return channelInputs{eps: 1e-5 * (0.95 + 0.10*rng.Float64()), phase: 0.2 + 0.5*rng.Float64()}
}

// channelSpec is flowcases.ChannelSpec with the seeded amplitude and the
// initial condition shifted by the seeded phase (the domain is periodic in
// x with period 2π/α, in KX elements).
func channelSpec(cc flowcases.ChannelConfig, in channelInputs) (ns.Config, flowcases.InitFunc, *orrsomm.Result, error) {
	cc.Eps = in.eps
	cfg, init, osr, err := flowcases.ChannelSpec(cc)
	if err != nil {
		return cfg, nil, nil, err
	}
	shift := in.phase * 2 * math.Pi / cc.Alpha / float64(cc.KX)
	return cfg, func(x, y, z float64) (float64, float64, float64) { return init(x+shift, y, z) }, osr, nil
}

var channel2dConfig = flowcases.ChannelConfig{
	Re: 7500, Alpha: 1, N: 9, KX: 5, KY: 3, Dt: 0.003125, Order: 2, Workers: 1, Precond: ns.PrecondSchwarz,
}

func runChannel2D(o options) (*report, error) {
	in := seededChannel(o.seed)
	plan := stepPlan{warm: 40, cycle: 20, alternate: true, deadline: o.deadline()}
	plan.timed = plan.cycle * o.units(4) // ≈ 80 steps/s on the reference machine
	setups := 7
	if o.tiny {
		plan.warm, plan.cycle, plan.timed, setups = 20, 10, 20, 3
	}
	if o.trace {
		setups = 1
	}

	var osr *orrsomm.Result
	build := func() (*ns.Solver, error) {
		cfg, init, ref, err := channelSpec(channel2dConfig, in)
		if err != nil {
			return nil, err
		}
		s, err := ns.New(cfg)
		if err != nil {
			return nil, err
		}
		s.SetVelocity(init)
		osr = ref
		return s, nil
	}
	s, setup, err := repeatSetup(setups, build)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	rep := newReport(o)
	rep.note("inputs: eps=%.6g phase=%.4f; %d warm-up + %d timed steps", in.eps, in.phase, plan.warm, plan.timed)
	tr, trk := newTracer(o)
	rng := newRand(o.seed)

	w := &stepWindow{}
	if err := warmUp(s, plan, w); err != nil {
		return nil, err
	}
	// Validation: the TS wave grows at the Orr–Sommerfeld rate and the
	// velocity is discretely divergence-free. The rate is taken over the
	// first growthSteps timed steps: at N=9 it reproduces the reference to
	// 5–7 % there (EXPERIMENTS.md Table 1) and then drifts upward, 0.0024 at
	// step 240 to 0.0035 at step 2440, so a longer window would not test the
	// stepper but the resolution.
	const growthSteps = 200
	e0, t0 := flowcases.PerturbationEnergy(s), s.Time()
	e1, t1 := e0, t0
	plan.after = func(done int) {
		if done == min(growthSteps, plan.timed) {
			e1, t1 = flowcases.PerturbationEnergy(s), s.Time()
		}
	}
	if err := timedWindow(s, plan, w, trk); err != nil {
		return nil, err
	}
	growth := 0.5 * math.Log(e1/e0) / (t1 - t0)
	relErr := math.Abs(growth-osr.GrowthRate()) / math.Abs(osr.GrowthRate())
	div := s.DivergenceNorm()
	rep.check(relErr <= 0.10, "growth rate %.6g vs Orr–Sommerfeld %.6g: relative error %.3f (limit 0.10)", growth, osr.GrowthRate(), relErr)
	rep.check(div <= 1e-9, "divergence norm %.3g (limit 1e-9)", div)
	rep.steps(w)

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

// repeatSetup runs build n times and returns the last solver with the
// interval each set-up took; the earlier solvers are closed.
func repeatSetup(n int, build func() (*ns.Solver, error)) (*ns.Solver, []interval, error) {
	var s *ns.Solver
	setup := make([]interval, 0, n)
	for i := 0; i < n; i++ {
		if s != nil {
			s.Close()
		}
		t0 := time.Now()
		var err error
		if s, err = build(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, since(t0))
	}
	return s, setup, nil
}
