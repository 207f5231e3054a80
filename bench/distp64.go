package main

// distp64.go is the dist_p64 workload: parrun.NavierStokes on the channel
// 16×4 (K=64, one element per rank), N=5, on 64 simulated ASCI-Red ranks
// with the default Schwarz preconditioner and the distributed XXT coarse
// solve. Latency-dominated: comm, gs.ParHandle, partition, coarse.XXT and
// parrun's own copy of the step do all the work. It carries two clocks:
// host time (simulator speed) and virtual time (the paper's modelled
// seconds per step).

import (
	"fmt"
	"time"
)

// standardDist is the distributed case, seeded like the serial channel.
func standardDist(o options) distCase {
	c := distCase{kx: 16, ky: 4, n: 5, p: 64, in: seededChannel(o.seed)}
	if o.tiny {
		c.kx, c.ky, c.p = 2, 2, 4
	}
	return c
}

func runDistP64(o options) (*report, error) {
	c := standardDist(o)
	warm, cycle := 40, 20
	timed := cycle * o.units(0.75) // ≈ 15 steps/s on the reference machine
	if o.tiny {
		warm, cycle, timed = 4, 2, 6
	}
	steps := warm + timed
	rep := newReport(o)
	rep.note("inputs: eps=%.6g phase=%.4f; P=%d; %d warm-up + %d timed steps", c.in.eps, c.in.phase, c.p, warm, timed)
	tr, trk := newTracer(o)

	// Set-up (call → first OnStep): a one-step run and the main run.
	var setups []interval
	var plain *distRun
	if !o.trace {
		r, err := runDist(c, 1, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setupInterval())
	} else {
		// The traced pass's own untraced baseline: the first cycles only.
		var err error
		if plain, err = runDist(c, warm+min(timed, 3*cycle), nil); err != nil {
			return nil, err
		}
	}
	run, err := runDist(c, steps, trk)
	if err != nil {
		return nil, err
	}
	setups = append(setups, run.setupInterval())

	// Operations: the timed steps, on host time.
	res := run.res
	var ops []interval
	var done []time.Time
	var firstErr string
	for i, st := range res.StepStats[warm:] {
		rep.attempted++
		done = append(done, run.at(run.stamps[warm+i]))
		if !st.PressureConverged || st.CFL >= 1 {
			rep.failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("step %d: pressure converged=%v after %d iterations, CFL %.3g", st.Step, st.PressureConverged, st.PressureIters, st.CFL)
			}
			continue
		}
		ops = append(ops, interval{run.at(run.stamps[warm+i-1]), run.at(run.stamps[warm+i])})
	}
	rep.check(rep.failed == 0, "%d of %d timed steps failed %s", rep.failed, rep.attempted, firstErr)

	// Validation against the serial stepper on the same case.
	plan := stepPlan{warm: warm, timed: timed, cycle: timed}
	twin, w, maxDiff, err := serialTwin(c, plan, res, trk)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	rep.check(res.P == c.p, "ran on %d ranks, want %d", res.P, c.p)
	rep.check(finite(res.U[0], res.U[1], res.Pressure), "distributed fields are finite")
	rep.check(maxDiff <= 1e-8, "final velocity within %.3g of the serial ns.Solver (limit 1e-8)", maxDiff)
	nonconv := 0
	for _, st := range w.stats {
		if !st.ViscousConverged {
			nonconv++
		}
	}
	rep.note("viscous flag: parrun reports %d non-converged steps, the serial stepper %d of %d", res.NonconvergedSteps, nonconv, len(w.stats))

	if !o.trace {
		rep.endToEnd(o.clk, timings{setup: setups, rest: []interval{{run.at(run.setup), run.at(run.wall)}},
			ops: ops, start: run.at(run.stamps[warm-1]), done: done, block: cycle})
		rep.note("a set-up is call to first OnStep")
		return rep, nil
	}

	if err := distLayers(rep.metrics, c, run, warm, maxDiff, o.budget(), trk); err != nil {
		return nil, err
	}
	// Modelled time: how much of a rank's virtual time the two named
	// communication layers cover (XXT's combine is an allreduce and counted
	// there); the rest is modelled local arithmetic.
	commV := run.reg.Timer("comm/allreduce.vtime").Total().Seconds() + run.reg.Timer("gs/exchange.vtime").Total().Seconds()
	rep.metrics["trace.coverage_pct"] = commV / float64(res.P) / res.VirtualSeconds * 100
	rep.note("allreduce and gs exchange cover %.1f %% of the modelled time", rep.metrics["trace.coverage_pct"])
	n := len(plain.hostStepMS(warm))
	rep.metrics["instrument.overhead_pct"] = overheadPct(run.hostStepMS(warm)[:n], plain.hostStepMS(warm))
	if _, err := rep.serialLayers(o, twin, w, trk, newRand(o.seed)); err != nil {
		return nil, err
	}
	if err := rep.foreignLayers(o, trk, false, true); err != nil {
		return nil, err
	}
	return rep, rep.finishTrace(o, tr)
}
