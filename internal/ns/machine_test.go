package ns

import (
	"math"
	"strings"
	"testing"
)

// poisoner is the shared-memory Machine with one fault: when the filter
// section of step `at` closes it turns one entry of the provisional velocity
// into NaN — a poisoned field that would otherwise be committed whole.
type poisoner struct {
	*shared
	at, entry int
}

func (p *poisoner) End(sec Section, st StepStats) {
	if sec == SecFilter && st.Step == p.at {
		p.s.ustar[0][p.entry] = math.NaN()
	}
	p.shared.End(sec, st)
}

// The divergence check scans every owned velocity entry. The seed stepper
// sampled every 97th, so a NaN anywhere else completed the step and was
// handed on (to the next step, a checkpoint, a "done" job): poisoning entry
// 5 must fail the very step that commits it, not a later one.
func TestNaNInUnsampledEntryFailsThatStep(t *testing.T) {
	m := periodicBox(t, 3, 5)
	s, err := New(Config{Mesh: m, Re: 100, Dt: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(2*math.Pi*x) * math.Cos(2*math.Pi*y), -math.Cos(2*math.Pi*x) * math.Sin(2*math.Pi*y), 0
	})
	s.mach = &poisoner{shared: s.mach.(*shared), at: 2, entry: 5}
	if _, err := s.Step(); err != nil {
		t.Fatalf("step 1: %v", err)
	}
	_, err = s.Step()
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("step 2 committed a velocity with a NaN at entry 5: err = %v", err)
	}
	if s.StepCount() != 2 {
		t.Fatalf("failure reported at step count %d, want 2", s.StepCount())
	}
}
