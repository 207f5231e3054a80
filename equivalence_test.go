package repro_test

import (
	"fmt"
	"runtime"
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

func compareFields(t *testing.T, a, b *ns.Solver, label string) {
	t.Helper()
	for c := 0; c < a.Dim(); c++ {
		ua, ub := a.Velocity(c), b.Velocity(c)
		for i := range ua {
			if ua[i] != ub[i] {
				t.Fatalf("%s: velocity[%d][%d] differs: %g vs %g", label, c, i, ub[i], ua[i])
			}
		}
	}
	pa, pb := a.Pressure(), b.Pressure()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s: pressure[%d] differs: %g vs %g", label, i, pb[i], pa[i])
		}
	}
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

// The element worker pool must not change results: all parallel loops write
// disjoint element blocks with deterministic work assignment. The coarse
// chunk partition depends on the worker count, so W ∈ {2, 4, 8} exercises
// distinct element-to-worker maps (including W=8 > K/2 where trailing
// workers get short or empty chunks). GOMAXPROCS is forced above 1 so the
// pool actually dispatches instead of taking its serial fallback. The 3-D
// hairpin box adds the mesh that mixes element classes, on which Divergence
// and GradientT are each one element-parallel pass of a per-element kernel.
func TestWorkersChannelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the channel case repeatedly")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ref := channelSolver(t, 1)
	stepN(t, ref, 5)
	for _, w := range []int{2, 4, 8} {
		par := channelSolver(t, w)
		stepN(t, par, 5)
		compareFields(t, ref, par, fmt.Sprintf("workers=%d", w))
	}

	hairpin := func(workers int) *ns.Solver {
		s, err := flowcases.Hairpin(flowcases.HairpinConfig{
			Nx: 6, Ny: 4, Nz: 3, N: 4, Re: 850, Dt: 0.05, FilterA: 0.1,
			Workers: workers, Precond: ns.PrecondChebJacobi,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		stepN(t, s, 3)
		return s
	}
	ref = hairpin(1)
	for _, w := range []int{2, 4} {
		compareFields(t, ref, hairpin(w), fmt.Sprintf("hairpin workers=%d", w))
	}
}
