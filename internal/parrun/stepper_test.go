package parrun

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
)

// channelCase is the Table-1 channel at N=5 (K=15), the problem the fault
// tables run, with the pressure solve capped well below the ~160 iterations
// of its cold steps: the comparisons here are bitwise whether or not a solve
// converged, and the cap keeps the -race -count=10 tier in CI time.
func channelCase(t *testing.T) (ns.Config, flowcases.InitFunc) {
	t.Helper()
	cfg, init, _, err := flowcases.ChannelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 5, KX: 5, KY: 3, Dt: 0.003125, Order: 2, Filter: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PMaxIter = 30
	return cfg, init
}

// traced returns a P=4 run configuration with every observer attached and a
// wall-clock-free tracer, so two runs can be compared down to trace bytes.
func traced(init flowcases.InitFunc, plan *fault.Plan) (NSConfig, *instrument.Tracer, *instrument.TimeSeries) {
	tr := instrument.NewTracer()
	tr.DisableWallClock()
	hist := instrument.NewTimeSeries()
	return NSConfig{P: 4, Init: init, Faults: plan, Tracer: tr, History: hist,
		Registry: instrument.New()}, tr, hist
}

func traceBytes(t *testing.T, tr *instrument.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func historyBytes(t *testing.T, h *instrument.TimeSeries) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStepperBatchesEqualOneRun: StepN(a) then StepN(b) is NavierStokes(a+b)
// bit for bit — fields, per-step statistics and modelled times, phase
// breakdown, traffic and fault counters (the whole NSResult), the telemetry
// rows and the trace — on a flawless and on a degraded machine. The ranks'
// clocks, buffer pools and fault-draw counters live in the comm.Network, so
// joining every goroutine between two batches changes nothing the machine
// can see.
func TestStepperBatchesEqualOneRun(t *testing.T) {
	cfg, init := channelCase(t)
	const a, b = 1, 2
	for name, plan := range map[string]func() *fault.Plan{
		"flawless": func() *fault.Plan { return nil },
		"degraded": degradedPlan,
	} {
		t.Run(name, func(t *testing.T) {
			oneCfg, oneTr, oneHist := traced(init, plan())
			oneCfg.Steps = a + b
			one, err := NavierStokes(cfg, oneCfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan() != nil && one.Drops == 0 {
				t.Fatal("plan produced no drops; the degraded case would not exercise the fault counters")
			}

			twoCfg, twoTr, twoHist := traced(init, plan())
			st, err := Start(cfg, twoCfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.StepCount() != 0 {
				t.Fatalf("Start stepped: %d steps done", st.StepCount())
			}
			last, err := st.StepN(a)
			if err != nil {
				t.Fatal(err)
			}
			if last != one.StepStats[a-1] || st.StepCount() != a {
				t.Fatalf("after StepN(%d): step %d, stats %+v, want %+v", a, st.StepCount(), last, one.StepStats[a-1])
			}
			if _, err := st.StepN(b); err != nil {
				t.Fatal(err)
			}
			two := st.Result()
			if !reflect.DeepEqual(one, two) {
				t.Errorf("batched run differs from the one-call run:\n one %d steps, virtual %g, %d msgs, %d drops\n two %d steps, virtual %g, %d msgs, %d drops",
					one.Steps, one.VirtualSeconds, one.TotalMsgs, one.Drops,
					two.Steps, two.VirtualSeconds, two.TotalMsgs, two.Drops)
			}
			if !bytes.Equal(historyBytes(t, oneHist), historyBytes(t, twoHist)) {
				t.Error("telemetry rows differ between the batched and the one-call run")
			}
			if x, y := traceBytes(t, oneTr), traceBytes(t, twoTr); !bytes.Equal(x, y) {
				t.Errorf("traces differ between the batched and the one-call run: %d vs %d bytes", len(x), len(y))
			}
		})
	}
}

// TestStepperCheckpointResume: a snapshot taken between two batches, round-
// tripped through its codec, restarts a bitwise continuation under a fault
// plan; and taking it perturbs nothing — the stepper it was taken from goes
// on to the uninterrupted run's result.
func TestStepperCheckpointResume(t *testing.T) {
	cfg, init := channelCase(t)
	const ckSteps, steps = 2, 4
	base := NSConfig{P: 4, Steps: steps, Init: init}
	base.Faults = degradedPlan()
	full, err := NavierStokes(cfg, base)
	if err != nil {
		t.Fatal(err)
	}

	base.Steps = 0
	base.Faults = degradedPlan()
	st, err := Start(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.StepN(ckSteps); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Checkpoint().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step() != ckSteps || ck.P != 4 || len(ck.Ranks) != 4 {
		t.Fatalf("snapshot at step %d of P=%d with %d rank states", ck.Step(), ck.P, len(ck.Ranks))
	}

	if _, err := st.StepN(steps - ckSteps); err != nil {
		t.Fatal(err)
	}
	if got := st.Result(); !reflect.DeepEqual(full, got) {
		t.Errorf("taking a snapshot perturbed the run: virtual %g vs %g, %d vs %d msgs",
			full.VirtualSeconds, got.VirtualSeconds, full.TotalMsgs, got.TotalMsgs)
	}

	base.Faults = degradedPlan()
	base.Resume = ck
	re, err := Start(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if re.StepCount() != ckSteps {
		t.Fatalf("resumed at step %d, want %d", re.StepCount(), ckSteps)
	}
	if _, err := re.StepN(steps - ckSteps); err != nil {
		t.Fatal(err)
	}
	requireBitwiseContinuation(t, full, re.Result(), ckSteps)
}

// TestStepNRefusesAnUndeliveredMessage: a snapshot between two batches
// carries no message, so a batch that leaves one unreceived fails instead of
// handing a checkpoint a network that is not at rest.
func TestStepNRefusesAnUndeliveredMessage(t *testing.T) {
	cfg, init := channelCase(t)
	st, err := Start(cfg, NSConfig{P: 2, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.StepN(1); err != nil {
		t.Fatal(err)
	}
	st.net.Run(func(r *comm.Rank) {
		if r.ID == 0 {
			r.Send(1, 99, []float64{1})
		}
	})
	if _, err := st.StepN(1); err == nil || !strings.Contains(err.Error(), "1 messages undelivered") {
		t.Fatalf("StepN after a stray message: err = %v, want the undelivered message named", err)
	}
}

// TestStepOneIsTimedFromTheSlowestSetUp: at P = 3 and 8 each rank's four
// step-1 phases sum, to 1e-15 s, to its step-1 end clock less the clock at
// which the slowest rank finished its set-up. A rank that finished sooner
// waits for that rank in step 1's first exchange; the wait is the set-up's,
// and no phase of the step is charged with it.
func TestStepOneIsTimedFromTheSlowestSetUp(t *testing.T) {
	cfg, init := nsCase(t)
	for _, p := range []int{3, 8} {
		s, err := Start(cfg, NSConfig{P: p, Steps: 1, Init: init})
		if err != nil {
			t.Fatal(err)
		}
		setUp, waited := comm.MaxTime(s.ranks), false
		for _, r := range s.ranks {
			waited = waited || r.Time < setUp
		}
		if !waited {
			t.Fatalf("P=%d: every rank finished its set-up at %g; nothing to test", p, setUp)
		}
		if _, err := s.StepN(1); err != nil {
			t.Fatal(err)
		}
		for q := range s.rs {
			rec := s.rs[q].steps[0]
			sum := rec.phase[0] + rec.phase[1] + rec.phase[2] + rec.phase[3]
			if want := rec.vEnd - setUp; math.Abs(sum-want) > 1e-15 {
				t.Errorf("P=%d rank %d: step-1 phases sum to %.17g s, want %.17g (end %g, slowest set-up %g)",
					p, q, sum, want, rec.vEnd, setUp)
			}
		}
	}
}

// TestRegistryIsReproducible: the driver resumes the ranks in one order, so
// the ranks' own observations reach the registry in that order too, and two
// P = 8 runs report every counter and every virtual-time histogram (count,
// sum, min, max, buckets) identically. Timers are left out: some time the
// host.
func TestRegistryIsReproducible(t *testing.T) {
	cfg, init := channelCase(t)
	run := func() instrument.Report {
		reg := instrument.New()
		if _, err := NavierStokes(cfg, NSConfig{P: 8, Steps: 4, Init: init, Registry: reg}); err != nil {
			t.Fatal(err)
		}
		return reg.Report()
	}
	a, b := run(), run()
	if len(a.Histograms) == 0 || len(a.Counters) == 0 {
		t.Fatalf("the run reported %d counters and %d histograms", len(a.Counters), len(a.Histograms))
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("counters differ between two runs:\n%v\n%v", a.Counters, b.Counters)
	}
	if !reflect.DeepEqual(a.Histograms, b.Histograms) {
		for i := range a.Histograms {
			if !reflect.DeepEqual(a.Histograms[i], b.Histograms[i]) {
				t.Errorf("histogram %s differs between two runs:\n%+v\n%+v", a.Histograms[i].Name, a.Histograms[i], b.Histograms[i])
			}
		}
	}
}
