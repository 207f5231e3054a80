package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/parrun"
	"repro/internal/session"
)

// distChannelSpec builds the Table-1 channel problem used by the
// measured-from-distributed-run columns of Figs. 6 and 8: Re 7500, K=15,
// N=5 — small enough that a full SPMD time advancement on the simulated
// machine finishes in seconds, large enough that the Schwarz+XXT pressure
// solve exercises every communication phase.
func distChannelSpec() (ns.Config, flowcases.InitFunc, error) {
	return session.Config{Case: "channel", N: 5}.Problem()
}

// distChannelRun advances the channel for a few steps as an SPMD program on
// the simulated machine with a virtual-clock tracer attached and returns
// the run result together with its trace.
func distChannelRun(cfg ns.Config, init flowcases.InitFunc, p, steps int) (*parrun.NSResult, *instrument.Tracer, error) {
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	res, err := parrun.NavierStokes(cfg, parrun.NSConfig{
		P: p, Steps: steps, Init: init, Tracer: tr,
	})
	return res, tr, err
}

// fig6Distributed adds the measured-from-distributed-run column to Fig. 6:
// instead of a standalone Poisson coarse problem, it takes the coarse
// operator actually embedded in the channel's Schwarz preconditioner, runs
// the full distributed Navier–Stokes stepper, and averages the rank-0
// "coarse/xxt.solve" virtual-clock spans over every pressure iteration of
// the run. The same operator is then solved standalone on an otherwise idle
// machine; the ratio shows how closely the in-flow coarse solve tracks the
// isolated one (it should be ~1: the XXT schedule has no data-dependent
// waits, so embedding it in the stepper adds nothing to the span itself).
func fig6Distributed(quick bool) error {
	cfg, init, err := distChannelSpec()
	if err != nil {
		return fmt.Errorf("channel spec: %w", err)
	}
	ps := []int{2, 4, 8}
	steps := 3
	if quick {
		ps = []int{2, 4}
		steps = 2
	}
	// The standalone reference solves the same coarse problem the
	// distributed run does: build one serial solver and distribute the
	// factor of its pressure preconditioner at every P.
	scfg := cfg
	scfg.Workers = 1
	sv, err := ns.New(scfg)
	if err != nil {
		return fmt.Errorf("channel solver: %w", err)
	}
	fac := sv.CoarseFactor()
	if fac == nil {
		return fmt.Errorf("the channel's pressure preconditioner has no coarse operator")
	}
	n := fac.N
	b := normalVec(n, 7)
	fmt.Printf("\nFig 6 (measured): coarse solves inside the distributed channel stepper\n")
	fmt.Printf("(n=%d coarse dofs, %d steps; in-run = mean rank-0 coarse/xxt.solve span)\n", n, steps)
	fmt.Printf("%6s %8s %14s %14s %8s\n", "P", "solves", "in-run (s)", "standalone (s)", "ratio")
	for _, p := range ps {
		res, tr, err := distChannelRun(cfg, init, p, steps)
		if err != nil {
			return fmt.Errorf("distributed channel at P=%d: %w", p, err)
		}
		var sum float64
		cnt := 0
		for _, ev := range tr.Events() {
			if ev.Pid != instrument.PidMachine || ev.Tid != 0 ||
				ev.Ph != "X" || ev.Name != "coarse/xxt.solve" {
				continue
			}
			cnt++
			sum += ev.Dur / 1e6
		}
		if cnt == 0 {
			fmt.Printf("%6d %8d %14s %14s %8s\n", res.P, 0, "-", "-", "-")
			continue
		}
		mean := sum / float64(cnt)
		_, ranks := xxtRun(fac, res.P, b, nil)
		tAlone := comm.MaxTime(ranks)
		ratio := 0.0
		if tAlone > 0 {
			ratio = mean / tAlone
		}
		fmt.Printf("%6d %8d %14.3e %14.3e %8.2f\n", res.P, cnt, mean, tAlone, ratio)
	}
	fmt.Println("(every pressure CG iteration of every step runs one coarse solve;")
	fmt.Println(" in-run spans come from the stepper's own virtual-clock trace)")
	return nil
}

// fig8Distributed adds the measured-from-distributed-run columns to Fig. 8:
// the full channel stepper runs as an SPMD program on the simulated
// machine, and the rank-0 allreduce spans from its trace — every CG inner
// product, norm, and CFL reduction of the run — are summed and compared
// against the closed-form log₂P·(α + 8·words·β) recursive-doubling model,
// exactly as fig8TraceCheck does for the isolated coarse solve. The ratio
// measures how much skew-induced wait the executed schedule adds on top of
// the zero-skew model once the collectives are embedded in a real time
// loop rather than a lone solve.
func fig8Distributed(quick bool) error {
	cfg, init, err := distChannelSpec()
	if err != nil {
		return fmt.Errorf("channel spec: %w", err)
	}
	ps := []int{2, 4, 8}
	steps := 5
	if quick {
		ps = []int{2, 4}
		steps = 2
	}
	fmt.Printf("\nModel vs executed trace, distributed channel stepper (%d steps,\n", steps)
	fmt.Println("rank-0 allreduce time across all collectives of the run):")
	fmt.Printf("%6s %12s %8s %14s %14s %8s\n",
		"P", "s/step", "colls", "modeled (s)", "traced (s)", "ratio")
	for _, p := range ps {
		res, tr, err := distChannelRun(cfg, init, p, steps)
		if err != nil {
			return fmt.Errorf("distributed channel at P=%d: %w", p, err)
		}
		colls, traced, modeled, ratio := rank0Allreduce(tr, res.P)
		fmt.Printf("%6d %12.3e %8d %14.3e %14.3e %8.2f\n",
			res.P, res.VirtualSeconds/float64(res.Steps), colls, modeled, traced, ratio)
	}
	fmt.Println("(modeled: log2(P) recursive-doubling rounds at alpha + 8*words*beta")
	fmt.Println(" each; traced spans additionally see the wait for the last-arriving")
	fmt.Println(" rank, so ratio > 1 quantifies load-imbalance skew in the stepper)")
	return nil
}
