package main

// precond: the runtime preconditioner-selection experiment (after Phillips
// et al.). Runs the Table-1 channel for a few steps under each pressure
// preconditioner variant and prints per-variant iteration counts plus the
// trial-tournament outcome of -precond auto; then, Table-2 style, one warm
// row per variant on the hairpin box: pressure iterations per step, the
// flops one iteration charges, the work and the wall time of a step.

import (
	"fmt"
	"time"

	"repro/internal/flowcases"
	"repro/internal/ns"
	"repro/internal/solver"
)

func precondExp(quick bool) error {
	n, steps := 9, 6
	if quick {
		n, steps = 5, 3
	}
	fmt.Printf("Channel (Table 1 case), N=%d, %d steps: pressure CG iterations per variant\n\n", n, steps)
	fmt.Printf("%-12s %-10s %-14s %-10s\n", "precond", "iters", "per-step", "converged")
	for _, name := range ns.PrecondNames() {
		s, _, err := flowcases.Channel(flowcases.ChannelConfig{
			Re: 7500, Alpha: 1, N: n, Dt: 0.003125, Order: 2, Precond: name,
		})
		if err != nil {
			return fmt.Errorf("channel under %s: %w", name, err)
		}
		total, conv := 0, true
		for i := 0; i < steps; i++ {
			st, err := s.Step()
			if err != nil {
				return fmt.Errorf("channel under %s, step %d: %w", name, i+1, err)
			}
			total += st.PressureIters
			conv = conv && st.PressureConverged
		}
		fmt.Printf("%-12s %-10d %-14.1f %-10v\n", name, total, float64(total)/float64(steps), conv)
	}

	solver.ResetPrecondTable()
	s, _, err := flowcases.Channel(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: n, Dt: 0.003125, Order: 2, Precond: ns.PrecondAuto,
	})
	if err != nil {
		return fmt.Errorf("channel under auto: %w", err)
	}
	printTrials(s.PrecondSelection())
	return hairpinPrecond(quick)
}

// printTrials prints the outcome of an auto tournament, one line per trial.
func printTrials(sel solver.PrecondSelection) {
	fmt.Printf("\n-precond auto selected %q (source %s)\n", sel.Name, sel.Source)
	for _, tr := range sel.Trials {
		fmt.Printf("  trial %-12s %4d iters  converged=%-5v  %9.4g Mflop  %7.4g Mflop/iter  %.3fs\n",
			tr.Name, tr.Iterations, tr.Converged, float64(tr.Flops)/1e6,
			float64(tr.Flops)/1e6/float64(max(tr.Iterations, 1)), tr.Seconds)
	}
}

// hairpinPrecond runs the tournament on the hairpin box (the hairpin3d
// benchmark's problem at Re = 850) and then, per variant, steps until the
// projection basis wraps and times the steps after it. Flops per iteration
// are the variant's trial work over its trial iterations, both from the
// meter; Mflop/step is the metered work of a whole warm step.
func hairpinPrecond(quick bool) error {
	hc := flowcases.HairpinConfig{Nx: 6, Ny: 4, Nz: 3, N: 5, Re: 850, Dt: 0.05, FilterA: 0.1}
	timed := 20
	if quick {
		hc.Nx, hc.Ny, hc.Nz, timed = 3, 2, 2, 5
	}
	solver.ResetPrecondTable()
	hc.Precond = ns.PrecondAuto
	s, err := flowcases.Hairpin(hc)
	if err != nil {
		return fmt.Errorf("hairpin under auto: %w", err)
	}
	fmt.Printf("\nHairpin box K=%d N=%d Re=850:", s.M.K, s.M.N)
	sel := s.PrecondSelection()
	printTrials(sel)
	fmt.Printf("\n%d warm steps per variant after the projection basis wraps\n\n", timed)
	fmt.Printf("%-12s %-11s %-11s %-11s %-8s\n", "precond", "iters/step", "Mflop/iter", "Mflop/step", "ms/step")
	for _, tr := range sel.Trials {
		hc.Precond = tr.Name
		s, err := flowcases.Hairpin(hc)
		if err != nil {
			return fmt.Errorf("hairpin under %s: %w", tr.Name, err)
		}
		for prev := 0; ; {
			st, err := s.Step()
			if err != nil {
				return fmt.Errorf("hairpin under %s, until the basis wraps: %w", tr.Name, err)
			}
			if st.ProjectionBasis < prev {
				break
			}
			prev = st.ProjectionBasis
		}
		iters, f0, t0 := 0, s.Disc().Flops(), time.Now()
		for i := 0; i < timed; i++ {
			st, err := s.Step()
			if err != nil {
				return fmt.Errorf("hairpin under %s, warm step %d: %w", tr.Name, i+1, err)
			}
			iters += st.PressureIters
		}
		per := float64(timed)
		fmt.Printf("%-12s %-11.1f %-11.3f %-11.2f %-8.2f\n", tr.Name, float64(iters)/per,
			float64(tr.Flops)/1e6/float64(max(tr.Iterations, 1)),
			float64(s.Disc().Flops()-f0)/1e6/per, time.Since(t0).Seconds()*1e3/per)
	}
	return nil
}
