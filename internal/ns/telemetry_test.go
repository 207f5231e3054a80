package ns

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/instrument"
	"repro/internal/solver"
)

func telemetrySolver(t *testing.T) *Solver {
	t.Helper()
	m := periodicBox(t, 3, 5)
	s, err := New(Config{Mesh: m, Re: 1000, Dt: 0.002, FilterAlpha: 0.05,
		ProjectionL: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(2 * math.Pi * y), 0.05 * math.Sin(2*math.Pi*x), 0
	})
	return s
}

// TestStepHistoryRecords: with a TimeSeries attached, every step appends a
// record carrying the per-iteration pressure residual history, and the
// JSONL serialization round-trips with the expected keys.
func TestStepHistoryRecords(t *testing.T) {
	s := telemetrySolver(t)
	hist := instrument.NewTimeSeries()
	s.AttachHistory(hist)
	const steps = 3
	for i := 0; i < steps; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if hist.Len() != steps {
		t.Fatalf("%d history records, want %d", hist.Len(), steps)
	}
	for i, rec := range hist.Records() {
		r, ok := rec.(StepRecord)
		if !ok {
			t.Fatalf("record %d has type %T", i, rec)
		}
		if r.Step != i+1 {
			t.Errorf("record %d: step %d", i, r.Step)
		}
		if !r.PressureConverged {
			t.Errorf("record %d: pressure not converged", i)
		}
		if len(r.PressureResHist) < 1 {
			t.Errorf("record %d: empty pressure residual history", i)
		}
		if len(r.PressureResHist) != r.PressureIters+1 {
			t.Errorf("record %d: %d residuals for %d iterations",
				i, len(r.PressureResHist), r.PressureIters)
		}
		if r.MaxDivergence <= 0 || r.MaxDivergence > 1e-3 {
			t.Errorf("record %d: max divergence %g out of range", i, r.MaxDivergence)
		}
		// The interpolation filter is not an orthogonal projection, so the
		// removed energy may have either sign — but it must be recorded
		// (nonzero) and small against the O(1) field energy.
		if r.FilterEnergy == 0 || math.Abs(r.FilterEnergy) > 1 {
			t.Errorf("record %d: filter energy removed %g out of range", i, r.FilterEnergy)
		}
	}
	var buf bytes.Buffer
	if err := hist.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != steps {
		t.Fatalf("%d JSONL lines, want %d", len(lines), steps)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"step", "time", "cfl", "pressure_iters",
		"pressure_converged", "pressure_res_hist", "max_divergence",
		"filter_energy_removed"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSONL record missing key %q", key)
		}
	}
}

// TestNonConvergenceFlagged: capping the pressure iterations must surface
// as Converged=false in stats, history, the gauge, and the counter — not
// as a silent Iterations==cap success.
func TestNonConvergenceFlagged(t *testing.T) {
	s := telemetrySolver(t)
	s.Cfg.PMaxIter = 1
	s.Cfg.PTol = 1e-14
	reg := instrument.New()
	s.AttachMetrics(reg)
	hist := instrument.NewTimeSeries()
	s.AttachHistory(hist)
	st, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.PressureConverged {
		t.Fatal("1-iteration cap reported as converged")
	}
	if st.PressureIters != 1 {
		t.Fatalf("PressureIters = %d, want 1", st.PressureIters)
	}
	if g := reg.Gauge("solver/pressure.converged").Mean(); g != 0 { // one step, one sample
		t.Errorf("convergence gauge = %g, want 0", g)
	}
	if c := reg.Counter("ns/nonconverged.steps").Value(); c != 1 {
		t.Errorf("nonconverged counter = %d, want 1", c)
	}
	rec := hist.Records()[0].(StepRecord)
	if rec.PressureConverged {
		t.Error("history record claims convergence")
	}
	if rec.PressureResFinal <= 0 {
		t.Error("final residual not recorded")
	}
}

// TestStepTraceBalanced: a traced step run emits a valid Chrome trace with
// balanced wall spans for the stepper phases and the CG solves.
func TestStepTraceBalanced(t *testing.T) {
	s := telemetrySolver(t)
	tr := instrument.NewTracer()
	s.AttachTracer(tr)
	for i := 0; i < 2; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := instrument.ValidateChromeTrace(buf.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Ph == "B" {
			seen[ev.Name]++
		}
	}
	for _, name := range []string{"ns/step", "ns/convect", "ns/viscous",
		"ns/pressure", "ns/filter", "pressure.cg", "helmholtz.cg",
		"schwarz/local", "schwarz/coarse"} {
		if seen[name] == 0 {
			t.Errorf("no %q span in step trace", name)
		}
	}
	// The components are solved as one lockstep batch under one span, whose
	// end carries every component's statistics.
	if got := seen["helmholtz.cg"]; got != 2 {
		t.Errorf("%d helmholtz.cg spans over 2 steps, want one per step", got)
	}
	for _, ev := range tr.Events() {
		if ev.Ph == "E" && ev.Name == "helmholtz.cg" {
			if sts, _ := ev.Args["systems"].([]solver.Stats); len(sts) != s.dim {
				t.Errorf("helmholtz.cg span ends with %v, want the statistics of every component", ev.Args)
			}
		}
	}
}
