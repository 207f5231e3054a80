package repro_test

import (
	"testing"

	"repro/internal/flowcases"
	"repro/internal/ns"
)

func channelSolver(t testing.TB, workers int) *ns.Solver {
	t.Helper()
	s, _, err := flowcases.Channel(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func stepN(t testing.TB, s *ns.Solver, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// warmUp steps s until its pressure projection basis has filled and restarted
// once, which also covers the BDF ramp and every scratch sizing: from then on
// the projector recycles its vectors and a step allocates nothing. The step
// count that takes depends on how many solves need any iterations at all
// (a solve that converges on the projected guess adds no basis vector), so it
// is observed, not assumed.
func warmUp(t testing.TB, s *ns.Solver) {
	t.Helper()
	prev := 0
	for i := 0; i < 500; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.ProjectionBasis < prev {
			return
		}
		prev = st.ProjectionBasis
	}
	t.Fatal("the projection basis did not wrap within 500 steps")
}

// Steady-state Step must be allocation-free at workers=1: all per-step
// make() calls from the seed stepper now draw from solver arenas. Warm-up
// covers the BDF ramp, scratch sizing, and one full projection-basis cycle
// (L=20 plus restart) so the projector's freelist is primed.
func TestChannelStepAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warm-up")
	}
	s := channelSolver(t, 1)
	warmUp(t, s)
	allocs := testing.AllocsPerRun(4, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Step allocated %v times per step, want 0", allocs)
	}
}
