package repro_test

// Acceptance test for the runtime-selected pressure preconditioners: every
// variant must converge each of the four seed flow cases to that case's own
// pressure tolerance, with the per-solve iteration counts landing in the
// shared pressure-iteration histogram.

import (
	"math"
	"testing"

	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/solver"
)

// seedCase builds one of the four canonical cases at test size with the
// given pressure preconditioner variant.
func seedCase(t *testing.T, name, precond string) *ns.Solver {
	t.Helper()
	var cfg ns.Config
	var init flowcases.InitFunc
	var err error
	switch name {
	case "shearlayer":
		cfg, init, err = flowcases.ShearLayerSpec(flowcases.ShearLayerConfig{
			Nel: 4, N: 5, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: 0.3,
		})
	case "channel":
		cfg, init, _, err = flowcases.ChannelSpec(flowcases.ChannelConfig{
			Re: 7500, Alpha: 1, N: 5, KX: 5, KY: 3, Dt: 0.003125, Order: 2,
		})
	case "convection":
		cfg, err = flowcases.ConvectionSpec(flowcases.ConvectionConfig{
			Nel: 4, N: 5, Ra: 5e3, Dt: 0.005, ProjectionL: 10,
		})
	case "hairpin":
		cfg, init, err = flowcases.HairpinSpec(flowcases.HairpinConfig{
			Nx: 4, Ny: 3, Nz: 3, N: 4, Re: 850, Dt: 0.02, Workers: 2, FilterA: 0.1,
		})
	default:
		t.Fatalf("unknown seed case %q", name)
	}
	var s *ns.Solver
	if err == nil {
		cfg.PressurePrecond = precond
		s, err = flowcases.NewSolver(cfg, init)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", name, precond, err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestPrecondVariantsConvergeSeedCases: schwarz, chebjacobi and chebschwarz
// each converge the shear layer, channel, convection cell and hairpin cases.
func TestPrecondVariantsConvergeSeedCases(t *testing.T) {
	if testing.Short() {
		t.Skip("steps all four cases under three preconditioners")
	}
	const steps = 3
	for _, cn := range []string{"shearlayer", "channel", "convection", "hairpin"} {
		iters := map[string]int{}
		for _, pn := range ns.PrecondNames() {
			s := seedCase(t, cn, pn)
			if got := s.PrecondName(); got != pn {
				t.Fatalf("%s: resolved %q, want %q", cn, got, pn)
			}
			reg := instrument.New()
			s.AttachMetrics(reg)
			for i := 0; i < steps; i++ {
				st, err := s.Step()
				if err != nil {
					t.Fatalf("%s/%s step %d: %v", cn, pn, i+1, err)
				}
				if !st.PressureConverged {
					t.Errorf("%s/%s step %d: pressure solve hit the cap (%d iters, res %g)",
						cn, pn, i+1, st.PressureIters, st.PressureResFinal)
				}
				iters[pn] += st.PressureIters
			}
			if n := reg.Histogram("solver/pressure.iters.hist").Stat().Count; n != steps {
				t.Errorf("%s/%s: iteration histogram has %d observations, want %d",
					cn, pn, n, steps)
			}
		}
		t.Logf("%s pressure iterations over %d steps: %v", cn, steps, iters)
	}
}

// TestPrecondSelectionGateChannel is the bench-tier regression gate: on the
// Table 1 channel case, the auto-selected preconditioner's trial solve must
// converge and must not charge more work than the Schwarz reference trial.
// A variant regressing past the reference would silently give back the win
// this selection machinery exists to bank.
func TestPrecondSelectionGateChannel(t *testing.T) {
	solver.ResetPrecondTable()
	defer solver.ResetPrecondTable()
	s, _, err := flowcases.Channel(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 5, KX: 5, KY: 3, Dt: 0.003125, Order: 2, Precond: ns.PrecondAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sel := s.PrecondSelection()
	if sel.Source != "trial" {
		t.Fatalf("selection source = %q, want trial (table not reset?)", sel.Source)
	}
	var ref, won *solver.PrecondTrial
	for i := range sel.Trials {
		if sel.Trials[i].Name == ns.PrecondSchwarz {
			ref = &sel.Trials[i]
		}
		if sel.Trials[i].Name == sel.Name {
			won = &sel.Trials[i]
		}
	}
	if ref == nil || won == nil {
		t.Fatalf("trials missing schwarz reference or winner %q: %+v", sel.Name, sel.Trials)
	}
	if !ref.Converged {
		t.Fatalf("schwarz reference trial did not converge: %+v", *ref)
	}
	if !won.Converged {
		t.Fatalf("selected %q trial did not converge: %+v", sel.Name, *won)
	}
	if won.Flops <= 0 || won.Flops > ref.Flops {
		t.Errorf("selected %q charges %d trial flops, schwarz reference charges %d",
			sel.Name, won.Flops, ref.Flops)
	}
	t.Logf("channel selection: %s (schwarz ref %d flops, winner %d flops)",
		sel.Name, ref.Flops, won.Flops)
}

// TestColdTrialRankMatchesWarmWork guards the proxy the tournament rests
// on: the variant whose cold trial charges the least work must also charge
// the least work per warm step. On the N = 5 channel and on the hairpin box
// of the benchmark, the auto winner's metered work over 10 projected steps
// must not exceed any other variant's. It also guards why chebjacobi is no
// entrant: it must charge strictly more warm work than each other variant.
func TestColdTrialRankMatchesWarmWork(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the channel and the K = 72 hairpin box under every variant")
	}
	defer solver.ResetPrecondTable()
	cases := []struct {
		name  string
		build func(precond string) (*ns.Solver, error)
	}{
		{"channel", func(precond string) (*ns.Solver, error) {
			s, _, err := flowcases.Channel(flowcases.ChannelConfig{
				Re: 7500, Alpha: 1, N: 5, KX: 5, KY: 3, Dt: 0.003125, Order: 2, Precond: precond,
			})
			return s, err
		}},
		{"hairpin", func(precond string) (*ns.Solver, error) {
			return flowcases.Hairpin(flowcases.HairpinConfig{
				Nx: 6, Ny: 4, Nz: 3, N: 5, Re: 850, Dt: 0.05, FilterA: 0.1, Workers: 1, Precond: precond,
			})
		}},
	}
	for _, c := range cases {
		solver.ResetPrecondTable()
		s, err := c.build(ns.PrecondAuto)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		winner := s.PrecondName()
		s.Close()
		work := map[string]int64{}
		for _, pn := range ns.PrecondNames() {
			s, err := c.build(pn)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, pn, err)
			}
			f0 := s.Disc().Flops()
			stepN(t, s, 10)
			work[pn] = s.Disc().Flops() - f0
			s.Close()
		}
		for pn, w := range work {
			if w < work[winner] {
				t.Errorf("%s: cold-trial winner %q charges %d flops over 10 warm steps, %q only %d",
					c.name, winner, work[winner], pn, w)
			}
			if pn != ns.PrecondChebJacobi && work[ns.PrecondChebJacobi] <= w {
				t.Errorf("%s: chebjacobi charges %d flops over 10 warm steps, %q %d: chebjacobi has to re-enter the auto tournament",
					c.name, work[ns.PrecondChebJacobi], pn, w)
			}
		}
		t.Logf("%s: winner %s, flops over 10 steps %v", c.name, winner, work)
	}
}

// The folklore this replaces — "cold channel solves hit the 500 cap", "~55
// pressure iterations per step" — was the velocity-grid preconditioner, not
// the problem. On the N = 9 Table-1 channel of the benchmark the first cold
// solve converges in 19 iterations and steps 41–240 average 1.1: the
// projection onto previous solutions leaves almost nothing to iterate on
// once the preconditioner works. Deterministic counts, gated at twice that.
func TestChannelSchwarzIterationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the N = 9 channel 240 times")
	}
	s, _, err := flowcases.Channel(goldenChannel)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	warm := 0
	for i := 1; i <= 240; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !st.PressureConverged {
			t.Fatalf("step %d: pressure solve hit the cap (%d iterations, residual %g)", i, st.PressureIters, st.PressureResFinal)
		}
		if i == 1 && st.PressureIters > 40 {
			t.Errorf("first cold solve took %d iterations, want <= 40", st.PressureIters)
		}
		if i > 40 {
			warm += st.PressureIters
		}
	}
	if mean := float64(warm) / 200; mean > 5 {
		t.Errorf("steps 41-240 average %.2f pressure iterations, want <= 5", mean)
	}
}

// What licenses re-pinning the channel and convection goldens: the pressure
// preconditioner changes the path CG takes to the tolerance, not the solution
// it converges to. Sixty channel steps under the Schwarz preconditioner and
// under Chebyshev–Jacobi — whose hairpin digest this change leaves bitwise
// untouched — end on the same velocity to solver tolerance.
func TestChannelSchwarzAgreesWithChebJacobi(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the N = 9 channel 120 times")
	}
	var u [2][2][]float64
	for k, precond := range []string{ns.PrecondSchwarz, ns.PrecondChebJacobi} {
		cfg := goldenChannel
		cfg.Precond = precond
		s, _, err := flowcases.Channel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stepN(t, s, 60)
		u[k] = [2][]float64{s.Velocity(0), s.Velocity(1)}
		s.Close()
	}
	for c := 0; c < 2; c++ {
		var d float64
		for i, v := range u[0][c] {
			d = max(d, math.Abs(v-u[1][c][i]))
		}
		if d > 1e-9 {
			t.Errorf("velocity component %d differs by %g between schwarz and chebjacobi after 60 steps, want <= 1e-9", c, d)
		}
	}
}
