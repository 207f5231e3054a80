package repro_test

// reductions_test.go counts allreduces: the pinned number the step's batching
// is for, and the performance model's count against the machine's.

import (
	"testing"

	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/parrun"
	"repro/internal/perfmodel"
)

// TestGoldenReductionCount pins what the step's batching is for: the
// allreduces one rank issues over warm steps 41-60 of the P = 8 golden
// channel, read from comm's own counter. Every decision in the step derives
// from joined values, so the count is exact. Before the independent inner
// products travelled together (PR 22) it was 1480.
func TestGoldenReductionCount(t *testing.T) {
	skipUnlessGoldenArch(t)
	cfg, init, _, err := flowcases.ChannelSpec(goldenChannel)
	if err != nil {
		t.Fatal(err)
	}
	const p, warm, steps = 8, 40, 20
	reg := instrument.New()
	s, err := parrun.Start(cfg, parrun.NSConfig{P: p, Init: init, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	calls := reg.Counter("comm/allreduce.calls")
	if _, err := s.StepN(warm); err != nil {
		t.Fatal(err)
	}
	before := calls.Value()
	if _, err := s.StepN(steps); err != nil {
		t.Fatal(err)
	}
	const want = 982
	if got := calls.Value() - before; got != want*p {
		t.Errorf("%d allreduce calls over %d warm steps on %d ranks (%.2f per rank and step), want %d per rank",
			got, steps, p, float64(got)/(p*steps), want)
	}
}

// TestGoldenExchangeCount pins the gather–scatter exchanges one rank makes
// over warm steps 41-60 of the P = 8 golden channel, read from gs's own
// timer, which records one entry per exchange. Every field the step assembles
// at one point travels in one exchange: the two velocity components of the
// convective mass average, the viscous right-hand sides, the lifted
// residuals, each lockstep Helmholtz CG pass, each E application's Dᵀp and
// the velocity update. When each component was exchanged on its own it was
// 484 (24.20 per step).
func TestGoldenExchangeCount(t *testing.T) {
	skipUnlessGoldenArch(t)
	cfg, init, _, err := flowcases.ChannelSpec(goldenChannel)
	if err != nil {
		t.Fatal(err)
	}
	const p, warm, steps = 8, 40, 20
	reg := instrument.New()
	s, err := parrun.Start(cfg, parrun.NSConfig{P: p, Init: init, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	exchanges := reg.Timer("gs/exchange.vtime")
	if _, err := s.StepN(warm); err != nil {
		t.Fatal(err)
	}
	before := exchanges.Count()
	if _, err := s.StepN(steps); err != nil {
		t.Fatal(err)
	}
	const want = 271
	if got := exchanges.Count() - before; got != want*p {
		t.Errorf("%d gs exchanges over %d warm steps on %d ranks (%.2f per rank and step), want %d per rank",
			got, steps, p, float64(got)/(p*steps), want)
	}
}

// TestPerfModelCountsTheReductionsTheStepIssues: perfmodel.Run.Reductions,
// fed the recorded history of the first 30 steps of the P = 8 golden channel
// (cold solves, a filling and restarting projection basis, steps whose
// projection alone answers), plus the three allreduces of each XXT coarse
// solve (one inside, two vector ones around it) that the model prices with the
// coarse term, plus the projection's and the null-space means' that the model
// does not have, is exactly what comm counted on every rank. The viscous solves
// of this run stop at their rounding floor (VTol is below it), through the
// exit that costs what a convergence at that iteration costs — but for one:
// since the convection operator moved to reference coordinates (PR 24, fields
// equal to 1e-12), step 12's x-component solve no longer converges at
// iteration 4 but takes a fifth step and leaves through the p·Ap ≤ 0 breakdown
// exit, two reductions into its sixth pass (ROADMAP item 7's knife edge).
// With step 4's 5 → 6 iterations that is 1742 → 1750 allreduces per rank.
func TestPerfModelCountsTheReductionsTheStepIssues(t *testing.T) {
	skipUnlessGoldenArch(t)
	cfg, init, _, err := flowcases.ChannelSpec(goldenChannel)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProjectionL = 8 // restarts inside the window
	const p, steps = 8, 30
	reg := instrument.New()
	s, err := parrun.Start(cfg, parrun.NSConfig{P: p, Init: init, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	calls := reg.Counter("comm/allreduce.calls")
	setUp := calls.Value()
	if _, err := s.StepN(steps); err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	run := perfmodel.Run{Dim: 2}
	var want, iterating, basis int
	for i, st := range res.StepStats {
		pi := st.PressureIters
		run.PressIters = append(run.PressIters, pi)
		run.HelmIters = append(run.HelmIters, max(st.HelmholtzIters[0], st.HelmholtzIters[1]))
		run.Substeps = append(run.Substeps, st.Substeps)
		want += run.Reductions(i) + 3*pi // three allreduces per XXT coarse solve
		// What the model leaves out. Projection: the coefficients on a
		// non-empty basis in one reduction and, after a solve that iterated,
		// two norms and two Gram–Schmidt passes over the basis it joins.
		eApplies := pi
		if basis > 0 {
			want++
		}
		basis = st.ProjectionBasis
		if pi > 0 {
			want += 2 + 2*max(basis-1, 0)
			eApplies++
			iterating++
		}
		// The enclosed channel: a mean for the right-hand side, the pressure,
		// every E application and both sides of every preconditioner call.
		want += 2 + eApplies + 2*pi
		if i == 11 {
			want += 2 // the breakdown exit above: its ρ and p·Ap reductions
		}
	}
	if got := calls.Value() - setUp; got != int64(want*p) {
		t.Errorf("comm counted %d allreduces over %d steps on %d ranks (%.2f per rank), the model %d per rank",
			got, steps, p, float64(got)/p, want)
	}
	if iterating == steps || iterating == 0 {
		t.Errorf("%d of %d steps iterate: the window was to hold both kinds", iterating, steps)
	}
}
