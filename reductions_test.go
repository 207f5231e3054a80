package repro_test

// reductions_test.go pins the collectives a warm step issues: the allreduces
// the step's batching is for, and the gather–scatter exchanges. Table 4's
// price reads the same counters (cmd/tables, TestExtrapolationAtOwnShapeIsTheTracedRun).

import (
	"testing"

	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/parrun"
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
