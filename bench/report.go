package main

// report.go collects what one pass of one workload measured and checked,
// and holds the parts of the traced pass every workload shares.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/solver"
)

// options is one pass of one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool      // -scale tiny: a few steps, 4 jobs, P=4 (bench_test.go)
	root     string    // checkout root: bench/out and .bench_build live under it
	clk      *refClock // untraced pass: the clock of the end-to-end metrics (refclock.go)
}

// units converts -seconds into a count of work units at the reference
// machine's nominal rate, so that the timed window is fixed work. The
// traced pass measures half the window: per-layer figures carry no bound,
// and it spends the time on the ladders instead.
func (o options) units(perSecond float64) int {
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	n := int(math.Round(seconds * perSecond))
	if n < 1 {
		n = 1
	}
	return n
}

func (o options) deadline() time.Duration {
	return time.Duration(3 * o.seconds * float64(time.Second))
}

func (o options) budget() rungBudget {
	if o.tiny {
		return rungBudget{batch: 2 * time.Millisecond, reps: 3}
	}
	return rungBudget{batch: 30 * time.Millisecond, reps: 5}
}

// poolWorkers is the count of job slots and HTTP clients of the service
// workload, and of element-loop workers in the sem.pool_speedup rung: the
// container has two CPUs.
func poolWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

type report struct {
	workload  string
	ok        bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
}

func newReport(o options) *report {
	return &report{workload: o.workload, ok: true, metrics: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one validation; a failed one makes the pass incorrect.
func (r *report) check(ok bool, format string, args ...any) {
	verdict := "ok  "
	if !ok {
		verdict = "FAIL"
		r.ok = false
	}
	r.note("check %s %s", verdict, fmt.Sprintf(format, args...))
}

// steps counts the timed steps of a window as the pass's operations.
func (r *report) steps(w *stepWindow) {
	r.attempted, r.failed = len(w.stats), w.failed
	r.check(w.failed == 0, "%d of %d timed steps failed %s", w.failed, len(w.stats), w.firstErr)
}

// timings is what the untraced pass of a workload measured.
type timings struct {
	setup       []interval  // the repeated set-ups: setup_s is their median
	rest        []interval  // run_s is setup_s plus these
	setupInRest bool        // the set-ups lie inside rest (the POSTs of the jobs): run_s is rest alone
	ops         []interval  // every operation that did not fail
	start       time.Time   // of the timed window
	done        []time.Time // completion of every operation, in order
	block       int         // operations per block of ops_per_s
}

// endToEnd fills the end-to-end metrics of the untraced pass, every
// duration read on clk.
func (r *report) endToEnd(clk *refClock, t timings) {
	clk.stop()
	figures := func(c *refClock) (setupS, runS, rate, p50, p75 float64) {
		secs := func(ivs []interval) []float64 {
			out := make([]float64, len(ivs))
			for i, iv := range ivs {
				out[i] = c.seconds(iv)
			}
			return out
		}
		offsets := make([]time.Duration, len(t.done))
		for i, d := range t.done {
			offsets[i] = time.Duration(c.seconds(interval{t.start, d}) * float64(time.Second))
		}
		opMS := secs(t.ops)
		for i := range opMS {
			opMS[i] *= 1e3
		}
		setupS = median(secs(t.setup))
		if !t.setupInRest {
			runS = setupS
		}
		for _, s := range secs(t.rest) {
			runS += s
		}
		return setupS, runS, blockRate(offsets, t.block), median(opMS), percentile(opMS, 75)
	}
	m := r.metrics
	m["setup_s"], m["run_s"], m["ops_per_s"], m["op_ms_p50"], m["op_ms_p75"] = figures(clk)
	m["peak_rss_mb"] = peakRSSMB()
	r.note("op_ms_p50/p75 over %d operations, ops_per_s the median of %d blocks of %d, setup_s the median of %d set-ups", len(t.ops), len(t.done)/t.block, t.block, len(t.setup))
	if clk != nil {
		setupS, runS, rate, p50, p75 := figures(nil)
		med, lo, hi := clk.slowdown()
		r.note("on the wall clock: setup_s %.6g, run_s %.6g, ops_per_s %.6g, op_ms_p50 %.6g, op_ms_p75 %.6g", setupS, runS, rate, p50, p75)
		r.note("the host ran %.2f times slower than the quiet reference machine (median of %d samples; %.2f to %.2f)", med, len(clk.at), lo, hi)
	}
}

// steppingEndToEnd is endToEnd for a workload that steps a serial solver:
// run_s is set-up + warm-up + timed window.
func (r *report) steppingEndToEnd(clk *refClock, setup []interval, w *stepWindow, block int) {
	r.endToEnd(clk, timings{setup: setup, rest: []interval{w.warm, w.timed}, ops: w.ops, start: w.timed.t0, done: w.done, block: block})
}

// peakRSSMB is VmHWM of this process, the workload's child.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// newTracer returns the pass's tracer and main track (nil when untraced).
func newTracer(o options) (*instrument.Tracer, *track) {
	if !o.trace {
		return nil, nil
	}
	tr := instrument.NewTracer()
	tr.SetProcessName(instrument.PidWall, "bench "+o.workload+" (wall clock)")
	return tr, newTrack(tr, 0, "main")
}

// serialLayers fills every per-layer metric of the serial stack — la,
// tensor, sem, gs, ns, solver, schwarz — for the solver s that ran window
// w in the traced pass: per-step figures from the registry the stepper
// filled, operator costs from the layer ladder. It returns the share of the
// traced step wall the named layers cover.
func (r *report) serialLayers(o options, s *ns.Solver, w *stepWindow, trk *track, rng *rand.Rand) (coverage float64, err error) {
	layers := r.metrics
	trk.begin("bench/ladder")
	operatorShare := serialLadder(layers, s, rng, o.budget(), trk)

	workers := poolWorkers()
	layers["sem.pool_speedup"], err = poolSpeedup(s.Cfg, s.PrecondName(), workers, rng, o.budget(), trk)
	if err != nil {
		return 0, err
	}
	sel := s.PrecondSelection()
	if sel.Source != "trial" {
		trk.span("ladder/solver.tournament", 0, func() { sel, err = autoSelection(s.Cfg) })
		if err != nil {
			return 0, err
		}
	}
	var tournament float64
	for _, trial := range sel.Trials {
		tournament += trial.Seconds
		r.note("tournament: %-12s %4d iterations converged=%v %.3f s", trial.Name, trial.Iterations, trial.Converged, trial.Seconds)
	}
	layers["solver.tournament_s"] = tournament
	layers["solver.tournament_trials"] = float64(len(sel.Trials))
	trk.end(0)

	var totals phaseTotals
	totals.add(w.reg)
	coverage = stepLayers(layers, totals, w.tracedWall, operatorShare)
	r.note("under %q the operators (E, Schwarz sandwich) take %.1f %% of a pressure-CG iteration, CG's vector work the rest", s.PrecondName(), operatorShare*100)

	capped := w.coldCapped
	for _, st := range w.stats {
		if !st.PressureConverged {
			capped++
		}
	}
	layers["ns.cold_start_s"] = w.coldWall.Seconds()
	layers["ns.cold_capped_steps"] = float64(capped)
	layers["ns.allocs_per_step"] = float64(w.mallocs) / float64(len(w.stats))
	return coverage, nil
}

// overheadPct is the traced over the untraced median latency, minus one.
func overheadPct(tracedMS, plainMS []float64) float64 {
	if len(tracedMS) == 0 || len(plainMS) == 0 {
		return 0
	}
	return (median(tracedMS)/median(plainMS) - 1) * 100
}

// autoSelection runs the preconditioner tournament on cfg's problem in a
// cleared selection table and puts the installed table back afterwards.
func autoSelection(cfg ns.Config) (solver.PrecondSelection, error) {
	saved := solver.InstalledPrecondTable()
	defer solver.InstallPrecondTable(saved)
	solver.ResetPrecondTable()
	cfg.PressurePrecond = ns.PrecondAuto
	s, err := ns.New(cfg)
	if err != nil {
		return solver.PrecondSelection{}, err
	}
	defer s.Close()
	return s.PrecondSelection(), nil
}

// foreignLayers fills the metrics of the layers a workload does not run
// itself, from short standard runs: the distributed channel for comm, gs,
// coarse, parrun and partition, and a handful of jobs against the session
// service for session. Every traced pass therefore measures every layer,
// and a per-layer figure never reads zero for want of a caller.
func (r *report) foreignLayers(o options, trk *track, dist, service bool) error {
	if err := sessionLadder(r.metrics, o, trk); err != nil {
		return err
	}
	if dist {
		c, warm, timed := standardDist(o), 40, 20
		if o.tiny {
			warm, timed = 4, 4
		}
		trk.begin("bench/dist_standard")
		run, err := runDist(c, warm+timed, trk)
		if err != nil {
			return fmt.Errorf("standard distributed run: %w", err)
		}
		twin, _, maxDiff, err := serialTwin(c, stepPlan{warm: warm, timed: timed, cycle: timed}, run.res, nil)
		if err != nil {
			return fmt.Errorf("standard distributed run, serial twin: %w", err)
		}
		twin.Close()
		if err := distLayers(r.metrics, c, run, warm, maxDiff, o.budget(), trk); err != nil {
			return err
		}
		trk.end(0)
	}
	if service {
		trk.begin("bench/service_standard")
		n := 6
		if o.tiny {
			n = 4
		}
		run, err := runJobs(o, jobMix(o, n), 1, nil)
		if err != nil {
			return fmt.Errorf("standard service run: %w", err)
		}
		if bad := run.failed(); bad > 0 {
			return fmt.Errorf("standard service run: %d of %d jobs failed: %s", bad, len(run.jobs), run.firstErr())
		}
		sessionLayers(r.metrics, run)
		trk.end(0)
	}
	return nil
}

// finishTrace writes and validates the trace file, prints the self times
// and checks that the traced pass produced every per-layer metric.
func (r *report) finishTrace(o options, tr *instrument.Tracer) error {
	path, err := writeTrace(o.root, o.workload, tr)
	if err != nil {
		return err
	}
	r.note("trace: %d events, valid Chrome trace, written to %s", tr.Len(), path)
	r.notes = append(r.notes, selfTimeTable(selfTimes(tr))...)
	for _, m := range perLayer {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("traced pass of %s produced no finite value for %s", o.workload, m.Name)
		}
	}
	return nil
}

// stepTraceSummary records the two figures of the traced pass itself for a
// workload whose window steps a serial solver on alternating cycles.
func (r *report) stepTraceSummary(coverage float64, w *stepWindow) {
	r.metrics["trace.coverage_pct"] = coverage
	r.metrics["instrument.overhead_pct"] = overheadPct(w.tracedMS, w.plainMS)
	r.note("named layers cover %.1f %% of the traced step wall; traced p50 %.3f ms over %d steps, untraced %.3f ms over %d",
		coverage, median(w.tracedMS), len(w.tracedMS), median(w.plainMS), len(w.plainMS))
}
