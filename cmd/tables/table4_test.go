package main

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/parrun"
)

// goldenChannel is the P = 8 golden channel of the repository's digests
// (golden_test.go): the channel2d benchmark case.
func goldenChannel(t *testing.T) (ns.Config, flowcases.InitFunc) {
	t.Helper()
	cfg, init, _, err := flowcases.ChannelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, KX: 5, KY: 3, Dt: 0.003125, Order: 2, Workers: 1, Precond: ns.PrecondSchwarz,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, init
}

func scaled(w stepWork, k float64) stepWork {
	return stepWork{w.MM * k, w.Vec * k, w.Exchanges * k, w.Msgs * k, w.Words * k,
		w.Allreduces * k, w.AllreduceWords * k, w.CoarseSolves * k}
}

func add(a, b stepWork) stepWork {
	return stepWork{a.MM + b.MM, a.Vec + b.Vec, a.Exchanges + b.Exchanges, a.Msgs + b.Msgs,
		a.Words + b.Words, a.Allreduces + b.Allreduces, a.AllreduceWords + b.AllreduceWords,
		a.CoarseSolves + b.CoarseSolves}
}

// TestExtrapolationAtOwnShapeIsTheTracedRun: the first 30 steps of the P = 8
// golden channel (cold solves, a filling and restarting projection basis,
// steps whose projection alone answers), recorded step by step, extrapolated
// to the channel's own (K, N, P), come back unchanged, and add up to what a
// second run of the same steps in one batch shows in its trace — allreduces
// and their words, gather–scatter exchanges, messages and words, coarse
// solves — and charged to its ranks' clocks, flops by class. The counts
// Table 4 prices are the step's, with nothing added or left out.
func TestExtrapolationAtOwnShapeIsTheTracedRun(t *testing.T) {
	cfg, init := goldenChannel(t)
	cfg.ProjectionL = 8 // restarts inside the window
	const p, steps = 8, 30
	run, err := record(cfg, init, p, steps)
	if err != nil {
		t.Fatal(err)
	}
	var got stepWork
	for i, w := range run.work {
		if x := extrapolate(w, run.at, run.at); x != w {
			t.Errorf("step %d: extrapolated to its own shape %+v, recorded %+v", i+1, x, w)
		}
		got = add(got, w)
	}

	tr := instrument.NewTracer()
	tr.DisableWallClock()
	s, err := parrun.Start(cfg, parrun.NSConfig{P: p, Init: init, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	setUp, before := traced(tr.Events()), s.Result()
	if _, err := s.StepN(steps); err != nil {
		t.Fatal(err)
	}
	after := s.Result()
	want := traced(tr.Events()).minus(setUp)
	want.MM, want.Vec = float64(after.MMFlops-before.MMFlops), float64(after.VecFlops-before.VecFlops)
	want = scaled(want, 1.0/p) // per rank
	if got != want {
		t.Errorf("recorded steps add up to %+v, the traced run's %+v", got, want)
	}
	if want.MM == 0 || want.Vec == 0 || want.Allreduces == 0 || want.Exchanges == 0 || want.CoarseSolves == 0 {
		t.Errorf("the traced run misses a kind of work: %+v", want)
	}
}

// traced counts the communication spans of a machine trace, over its ranks.
func traced(evs []instrument.TraceEvent) stepWork {
	var w stepWork
	for _, ev := range evs {
		if ev.Pid != instrument.PidMachine || ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "allreduce":
			w.Allreduces++
			w.AllreduceWords += float64(ev.Args["words"].(int))
		case "gs/exchange":
			w.Exchanges++
			w.Msgs += float64(ev.Args["neighbours"].(int))
			w.Words += float64(ev.Args["words"].(int))
		case "coarse/xxt.solve":
			w.CoarseSolves++
		}
	}
	return w
}

// TestPriceAtOwnShapeIsTheClock: at P = 1 nothing waits and nothing is
// sent, so the recorded steps priced on the machine are the virtual clock's
// steps, to rounding. The extrapolation and the clock price work one way.
func TestPriceAtOwnShapeIsTheClock(t *testing.T) {
	cfg, init := goldenChannel(t)
	run, err := record(cfg, init, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := price(run, run.at, comm.ASCIRed(1))
	for i, v := range run.virtual {
		if math.Abs(e.perStep[i]-v) > 1e-12*v {
			t.Errorf("step %d: priced %.15g s, the clock %.15g s", i+1, e.perStep[i], v)
		}
	}
}

var (
	quickOnce sync.Once
	quickRun  *reducedRun
	quickErr  error
)

// quickHairpin is the -quick reduced hairpin, recorded once for the tests
// that price it.
func quickHairpin(t *testing.T) *reducedRun {
	t.Helper()
	quickOnce.Do(func() { quickRun, quickErr = recordHairpin(true) })
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickRun
}

// TestReducedHairpinRunsItsSteps: both reduced hairpins run the paper's 26
// steps; Table 4 and Fig. 8 have no history but theirs.
func TestReducedHairpinRunsItsSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the full reduced hairpin (about a second)")
	}
	for _, quick := range []bool{true, false} {
		run, err := recordHairpin(quick)
		if err != nil {
			t.Fatalf("quick=%v: %v", quick, err)
		}
		if len(run.work) != hairpinSteps || len(run.stats) != hairpinSteps {
			t.Errorf("quick=%v: %d steps recorded, want %d", quick, len(run.work), hairpinSteps)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	run := quickHairpin(t)
	cell := func(p int, perf, dual bool) estimate {
		return price(run, production(p), comm.ASCIRedNode(p, perf, dual))
	}
	for _, perf := range []bool{false, true} {
		for _, dual := range []bool{false, true} {
			t1, t2, t4 := cell(512, perf, dual).total, cell(1024, perf, dual).total, cell(2048, perf, dual).total
			if s := t1 / t2; s < 1.7 || s > 2.05 {
				t.Errorf("perf=%v dual=%v: 512->1024 speed-up %g out of band", perf, dual, s)
			}
			if s := t2 / t4; s < 1.6 || s > 2.05 {
				t.Errorf("perf=%v dual=%v: 1024->2048 speed-up %g out of band", perf, dual, s)
			}
		}
	}
	for _, p := range []int{512, 1024, 2048} {
		for _, perf := range []bool{false, true} {
			if s := cell(p, perf, false).total / cell(p, perf, true).total; s < 1.3 || s >= 2 {
				t.Errorf("P=%d perf=%v: dual speed-up %g out of [1.3, 2)", p, perf, s)
			}
		}
		if cell(p, true, true).total >= cell(p, false, true).total {
			t.Errorf("P=%d: perf kernels not faster than std", p)
		}
	}
	// The paper's corners: 319 GF at (2048, dual, perf) over 47 at (512,
	// single, std), a ratio of 6.8.
	best, worst := cell(2048, true, true).gflops, cell(512, false, false).gflops
	if r := best / worst; r < 4 || r > 10 {
		t.Errorf("corner GFLOPS ratio %g (%g / %g) outside the plausible band", r, best, worst)
	}
}

func TestFig8TimePerStepDecays(t *testing.T) {
	run := quickHairpin(t)
	e := price(run, production(2048), comm.ASCIRedNode(2048, true, true))
	var last5 float64
	for _, v := range e.perStep[hairpinSteps-5:] {
		last5 += v / 5
	}
	// Time per step falls as the pressure projection warms up (Fig. 8).
	if e.perStep[0] <= last5 {
		t.Errorf("time per step did not decay: step 1 %g s, last five %g s", e.perStep[0], last5)
	}
}

func TestCommDominatesAtHugeP(t *testing.T) {
	// With absurdly many nodes for a small problem the price must show the
	// communication floor: the speed-up saturates.
	run := quickHairpin(t)
	small := func(p int) shape { return shape{dim: 3, k: 512, n: 7, p: p, coarse: 1000} }
	m := func(p int) comm.Machine { return comm.ASCIRed(p) }
	t512 := price(run, small(512), m(512)).total
	t4096 := price(run, small(4096), m(4096)).total
	if sp := t512 / t4096; sp > 3 {
		t.Errorf("speed-up %g should saturate in the latency regime", sp)
	}
}

func TestExtrapolationScalesWork(t *testing.T) {
	run := quickHairpin(t)
	w := run.work[0]
	x := extrapolate(w, run.at, production(2048))
	if x.MM <= 0 || x.Vec <= 0 {
		t.Fatalf("non-positive flop counts %+v", x)
	}
	if x.MM < 9*x.Vec {
		t.Errorf("matrix–matrix work should dominate at N=15: mm=%g vec=%g", x.MM, x.Vec)
	}
	lower := production(2048)
	lower.n = 7
	if y := extrapolate(w, run.at, lower); y.MM >= x.MM || y.Words >= x.Words {
		t.Errorf("order 7 should cost less than order 15: %+v vs %+v", y, x)
	}
}
