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
// It was 982 before the copies of every shared node agreed on every rank,
// which ended the viscous x-solve's extra passes, and before the projection
// basis was updated in three reductions instead of one per coefficient (917
// with the first change alone, 669 with the second alone).
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
	const want = 602
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
// 484 (24.20 per step); while the viscous x-solve took extra passes on
// copies of shared nodes that differed in the last bit, 271.
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
	const want = 249
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
// does not have, is exactly what comm counted on every rank. Every viscous
// solve of this run converges, as the serial stepper's do. While the copies
// of a node shared by three or more ranks differed in the last bit, the
// x-component solve stalled above its tolerance and left through the exit
// that costs what a convergence at that iteration costs, or once (step 12)
// through the p·Ap ≤ 0 breakdown exit, two reductions into a further pass;
// and the basis update joined 2l + 2 times (modified Gram–Schmidt): 1750
// allreduces per rank then, 1501 now.
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
		// the basis update's three (two classical Gram–Schmidt passes, the
		// first carrying the candidate's norm, and the final norm), or two
		// when it starts from an empty basis, whose second pass joins nothing.
		eApplies := pi
		if basis > 0 {
			want++
		}
		basis = st.ProjectionBasis
		if pi > 0 {
			want += 3
			if basis == 1 {
				want--
			}
			eApplies++
			iterating++
		}
		// The enclosed channel: a mean for the right-hand side, the pressure,
		// every E application and both sides of every preconditioner call.
		want += 2 + eApplies + 2*pi
	}
	if got := calls.Value() - setUp; got != int64(want*p) {
		t.Errorf("comm counted %d allreduces over %d steps on %d ranks (%.2f per rank), the model %d per rank",
			got, steps, p, float64(got)/p, want)
	}
	if iterating == steps || iterating == 0 {
		t.Errorf("%d of %d steps iterate: the window was to hold both kinds", iterating, steps)
	}
}
