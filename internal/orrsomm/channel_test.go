package orrsomm_test

import (
	"math"
	"testing"

	"repro/internal/flowcases"
	"repro/internal/ns"
	"repro/internal/orrsomm"
)

// Stopping the power iteration at the rounding floor moves the TS
// eigenfunction, and with it the channel's initial condition, in its last
// bits, which is why the channel2d digests of golden_test.go were re-pinned
// with that change. This is the tolerance behind the re-pin: the benchmark's
// channel stepped 60 times from the 8-iteration eigenfunction and from the
// 200-iteration one it replaced ends in the same velocity to 1e-12 (the
// perturbation is 1e-5 of a base flow of order one).
func TestChannelUnmovedByEarlyStop(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the N = 9 channel 120 times")
	}
	cfg, _, early, err := flowcases.ChannelSpec(flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, KX: 5, KY: 3, Dt: 0.003125, Order: 2, Workers: 1, Precond: ns.PrecondSchwarz,
	})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := orrsomm.SolveToCap(7500, 1, 128, complex(0.25, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	if early.Iterations >= capped.Iterations {
		t.Fatalf("early stop took %d iterations, the capped reference %d", early.Iterations, capped.Iterations)
	}
	var fields [2][2][]float64
	for i, osr := range []*orrsomm.Result{early, capped} {
		osr := osr
		s, err := flowcases.NewSolver(cfg, func(x, y, z float64) (float64, float64, float64) {
			up, vp := osr.Velocity(x, y, 0, 1e-5)
			return orrsomm.BaseFlow(y) + up, vp, 0
		})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 60; n++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for c := range fields[i] {
			fields[i][c] = append([]float64(nil), s.Velocity(c)...)
		}
		s.Close()
	}
	var worst float64
	for c := range fields[0] {
		for j, v := range fields[0][c] {
			worst = math.Max(worst, math.Abs(v-fields[1][c][j]))
		}
	}
	t.Logf("max velocity difference after 60 steps: %.3g (%d against %d power iterations)", worst, early.Iterations, capped.Iterations)
	if worst > 1e-12 {
		t.Errorf("velocity after 60 steps differs by %g between the two eigenfunctions, want <= 1e-12", worst)
	}
}
