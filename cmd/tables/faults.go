package main

// faults.go adds a degraded-machine experiment beyond the paper's tables:
// the same distributed channel stepper runs twice — once on the flawless
// ASCI-Red-like machine and once under a seeded fault plan (a 3x straggler
// on one rank plus lossy links recovered by bounded retry) — and the
// per-step modeled times are printed side by side. The slowdown column
// shows where the degradation lands: every step pays for the straggler
// through its barriers and allreduces, and drops add retry timeouts on the
// lossy links. The run still completes with bitwise-identical solver
// statistics, because faults only move virtual time, never values.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/instrument"
	"repro/internal/parrun"
)

func faultsExp(quick bool) error {
	cfg, init, err := distChannelSpec()
	if err != nil {
		return fmt.Errorf("channel spec: %w", err)
	}
	p := 4
	steps := 5
	if quick {
		steps = 3
	}
	plan := &fault.Plan{
		Seed:       42,
		Stragglers: []fault.Straggler{{Rank: 1, Factor: 3}},
		Drops:      []fault.Drop{{From: -1, To: -1, Prob: 0.02}},
	}
	clean, _, err := distChannelRun(cfg, init, p, steps)
	if err != nil {
		return fmt.Errorf("fault-free run: %w", err)
	}
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	degraded, err := parrun.NavierStokes(cfg, parrun.NSConfig{
		P: p, Steps: steps, Init: init, Tracer: tr, Faults: plan,
	})
	if err != nil {
		return fmt.Errorf("degraded run: %w", err)
	}
	fmt.Printf("\nDegraded-machine channel stepper (P=%d, %d steps; seed %d plan:\n",
		p, steps, plan.Seed)
	fmt.Println("rank 1 computes 3x slower, every link drops 2% of messages):")
	fmt.Printf("%6s %16s %16s %10s\n", "step", "clean (s)", "degraded (s)", "slowdown")
	for s := range clean.StepVirtual {
		ratio := 0.0
		if clean.StepVirtual[s] > 0 {
			ratio = degraded.StepVirtual[s] / clean.StepVirtual[s]
		}
		fmt.Printf("%6d %16.3e %16.3e %10.2f\n",
			s+1, clean.StepVirtual[s], degraded.StepVirtual[s], ratio)
	}
	fmt.Printf("total %16.3e %16.3e %10.2f\n",
		clean.VirtualSeconds, degraded.VirtualSeconds,
		degraded.VirtualSeconds/clean.VirtualSeconds)
	fmt.Printf("recovery: drops=%d retries=%d stall=%.3es (summed over ranks)\n",
		degraded.Drops, degraded.Retries, degraded.FaultStallSec)
	nfault := 0
	for _, ev := range tr.Events() {
		if ev.Cat == "fault" {
			nfault++
		}
	}
	fmt.Printf("trace: %d fault-category spans on the degraded machine's timeline\n", nfault)
	same := len(clean.StepStats) == len(degraded.StepStats)
	for s := 0; same && s < len(clean.StepStats); s++ {
		a, b := clean.StepStats[s], degraded.StepStats[s]
		same = a.PressureIters == b.PressureIters && a.PressureResFinal == b.PressureResFinal
	}
	fmt.Printf("solver statistics identical across the two machines: %v\n", same)
	fmt.Println("(faults move virtual time only — values, iteration counts, and")
	fmt.Println(" residuals are untouched, so the comparison isolates the machine)")
	if !same {
		return fmt.Errorf("the fault plan moved the solver statistics")
	}
	return nil
}
