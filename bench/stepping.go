package main

// stepping.go drives one serial ns.Solver through warm-up and a timed
// window. The three workloads that step a serial solver (channel2d,
// hairpin3d, and the serial twins of dist_p64 and semflowd_jobs in the
// traced pass) share it.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/instrument"
	"repro/internal/ns"
)

// coldSteps is how many steps from a fresh solver count as the cold start
// (the first solves run without a projection basis and may hit the cap).
const coldSteps = 4

// stepPlan sizes a run. The timed window is fixed work: the step counts
// follow from -seconds and a nominal rate, so that counts repeat exactly.
// deadline only guards a much slower machine: once the window has run that
// long it stops at the next cycle boundary.
type stepPlan struct {
	warm, timed int
	cycle       int  // steps per projection cycle (L = 20): the block of ops_per_s
	alternate   bool // traced pass: trace every other step only
	deadline    time.Duration
	after       func(done int) // optional: called after each timed step, outside its timing
}

type stepWindow struct {
	warm       interval      // the warm-up steps
	coldWall   time.Duration // first coldSteps steps
	coldCapped int           // warm-up steps whose pressure solve hit the iteration cap

	timed    interval // the timed window
	stats    []ns.StepStats
	ops      []interval  // each timed step that did not fail
	done     []time.Time // completion of every timed step
	failed   int
	firstErr string

	// Traced pass only.
	reg        *instrument.Registry // attached on traced cycles
	plainMS    []float64            // step wall on untraced cycles
	tracedMS   []float64            // step wall on traced cycles
	tracedWall float64              // seconds, sum over traced steps
	mallocs    uint64
}

func finite(fields ...[]float64) bool {
	for _, f := range fields {
		for _, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// stepFailure names why a completed step counts as failed ("" if it does not).
func stepFailure(s *ns.Solver, st ns.StepStats) string {
	switch {
	case !st.PressureConverged:
		return fmt.Sprintf("step %d: pressure solve hit its cap (%d iterations)", st.Step, st.PressureIters)
	case st.CFL >= 1:
		return fmt.Sprintf("step %d: CFL %.3g >= 1", st.Step, st.CFL)
	case !finite(s.Velocity(0), s.Velocity(1), s.Velocity(2), s.Pressure()):
		return fmt.Sprintf("step %d: non-finite field", st.Step)
	}
	return ""
}

// warmUp runs the plan's warm-up steps from the solver's current state.
func warmUp(s *ns.Solver, plan stepPlan, w *stepWindow) error {
	t0 := time.Now()
	for i := 0; i < plan.warm; i++ {
		st, err := s.Step()
		if err != nil {
			return fmt.Errorf("warm-up step %d: %w", i+1, err)
		}
		if !st.PressureConverged {
			w.coldCapped++
		}
		if i+1 == coldSteps || (i+1 == plan.warm && plan.warm < coldSteps) {
			w.coldWall = time.Since(t0)
		}
	}
	w.warm = since(t0)
	return nil
}

// timedWindow runs the plan's timed steps. With a track the pass is traced:
// a registry is attached and every step wrapped in a span, on every step or
// (plan.alternate) on every other one. Iterations per step swing by a
// factor of two along a projection cycle, whose length is not a fixed
// number of steps; only step-by-step alternation gives traced and untraced
// steps the same mix (alternating whole or quarter cycles read -17 % to
// +5 % "overhead" on identical code).
func timedWindow(s *ns.Solver, plan stepPlan, w *stepWindow, t *track) error {
	traced := t != nil
	var m0, m1 runtime.MemStats
	if traced {
		w.reg = instrument.New()
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	for i := 0; i < plan.timed; i++ {
		on := traced && (!plan.alternate || i%2 == 1)
		if i%plan.cycle == 0 && plan.deadline > 0 && time.Since(start) > plan.deadline {
			break
		}
		if on {
			s.AttachMetrics(w.reg)
		} else if traced {
			s.AttachMetrics(nil)
		}
		id := s.StepCount() + 1
		a := time.Now()
		if on {
			t.begin("bench/step")
		}
		st, err := s.Step()
		if on {
			t.end(id)
		}
		d := time.Since(a)
		if err != nil {
			return fmt.Errorf("timed step %d: %w", id, err)
		}
		w.stats = append(w.stats, st)
		if why := stepFailure(s, st); why != "" {
			w.failed++
			if w.firstErr == "" {
				w.firstErr = why
			}
		} else {
			w.ops = append(w.ops, interval{a, a.Add(d)})
			if traced && on {
				w.tracedMS = append(w.tracedMS, ms(d))
			} else if traced {
				w.plainMS = append(w.plainMS, ms(d))
			}
		}
		if on {
			w.tracedWall += d.Seconds()
		}
		w.done = append(w.done, time.Now())
		if plan.after != nil {
			plan.after(i + 1)
		}
	}
	w.timed = since(start)
	if traced {
		s.AttachMetrics(nil)
		runtime.ReadMemStats(&m1)
		w.mallocs = m1.Mallocs - m0.Mallocs
	}
	return nil
}

// phaseTotals are the stepper's registry figures over some set of steps.
type phaseTotals struct {
	steps                                           int64
	convect, viscous, pressure, filter, cg, project float64 // seconds
	pIters, vIters, substeps                        int64
	savings                                         float64
}

func (p *phaseTotals) add(reg *instrument.Registry) {
	sec := func(name string) float64 { return reg.Timer(name).Total().Seconds() }
	n := reg.Counter("ns/steps").Value()
	p.convect += sec("ns/convect")
	p.viscous += sec("ns/viscous")
	p.pressure += sec("ns/pressure")
	p.filter += sec("ns/filter")
	p.cg += sec("solver/pressure.cg")
	p.project += sec("solver/projection")
	p.pIters += reg.Counter("solver/pressure.iters").Value()
	p.vIters += reg.Counter("solver/viscous.iters").Value()
	p.substeps += reg.Counter("ns/substeps").Value()
	// Step-weighted mean of the per-solve projection savings.
	if tot := p.steps + n; tot > 0 {
		p.savings = (p.savings*float64(p.steps) + reg.Gauge("solver/projection.savings").Mean()*float64(n)) / float64(tot)
	}
	p.steps += n
}

// stepLayers fills the per-step ns.* and solver.* metrics and the layer
// coverage of the step wall. stepWall is the summed wall of the steps the
// totals cover, operatorShare the share of pressure-CG time its operators
// (E applies and Schwarz sandwiches) take.
func stepLayers(layers map[string]float64, p phaseTotals, stepWall, operatorShare float64) (coverage float64) {
	n := float64(p.steps)
	if n == 0 {
		return 0
	}
	perStepMS := func(sec float64) float64 { return sec / n * 1e3 }
	layers["ns.convect_ms_per_step"] = perStepMS(p.convect)
	layers["ns.viscous_ms_per_step"] = perStepMS(p.viscous)
	layers["ns.pressure_ms_per_step"] = perStepMS(p.pressure)
	layers["ns.filter_ms_per_step"] = perStepMS(p.filter)
	layers["ns.step_self_ms_per_step"] = perStepMS(stepWall - p.convect - p.viscous - p.pressure - p.filter)
	layers["ns.substeps_per_step"] = float64(p.substeps) / n
	layers["solver.pressure_iters_per_step"] = float64(p.pIters) / n
	layers["solver.helmholtz_iters_per_step"] = float64(p.vIters) / n
	if p.pIters > 0 {
		layers["solver.pressure_cg_ms_per_iter"] = p.cg / float64(p.pIters) * 1e3
	}
	operators := p.cg * operatorShare
	layers["solver.cg_vector_ms_per_step"] = perStepMS(p.cg - operators)
	layers["solver.projection_ms_per_step"] = perStepMS(p.project)
	layers["solver.projection_savings_mean"] = p.savings
	return (p.convect + p.viscous + p.filter + p.project + operators) / stepWall * 100
}
