package main

// precond: the runtime preconditioner-selection experiment (ROADMAP item 4,
// after Phillips et al.). Runs the Table-1 channel for a few steps under
// each pressure preconditioner variant and prints per-variant iteration
// counts plus the trial-tournament outcome of -precond auto.

import (
	"fmt"

	"repro/internal/flowcases"
	"repro/internal/ns"
	"repro/internal/solver"
)

func precondExp(quick bool) {
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
			fmt.Printf("%-12s build failed: %v\n", name, err)
			continue
		}
		total, conv := 0, true
		for i := 0; i < steps; i++ {
			st, err := s.Step()
			if err != nil {
				fmt.Printf("%-12s step failed: %v\n", name, err)
				conv = false
				break
			}
			total += st.PressureIters
			conv = conv && st.PressureConverged
		}
		fmt.Printf("%-12s %-10d %-14.1f %-10v\n", name, total, float64(total)/float64(steps), conv)
		s.Close()
	}

	solver.ResetPrecondTable()
	s, _, err := flowcases.Channel(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: n, Dt: 0.003125, Order: 2, Precond: ns.PrecondAuto,
	})
	if err != nil {
		fmt.Printf("\nauto build failed: %v\n", err)
		return
	}
	defer s.Close()
	sel := s.PrecondSelection()
	fmt.Printf("\n-precond auto selected %q (source %s)\n", sel.Name, sel.Source)
	for _, tr := range sel.Trials {
		fmt.Printf("  trial %-12s %4d iters  converged=%-5v  %.3fs\n",
			tr.Name, tr.Iterations, tr.Converged, tr.Seconds)
	}
}
