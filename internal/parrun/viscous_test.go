package parrun

import (
	"testing"

	"repro/internal/flowcases"
	"repro/internal/ns"
)

// TestViscousConvergedAgreesWithSerial: the distributed channel reports every
// viscous solve converged, in each step the serial stepper's Helmholtz
// iteration counts, on the golden channel (N = 9, 5×3) at P = 8 and on the
// 16×4, N = 5 channel at P = 64, one element per rank. The x-component
// tolerance sits near the solve's rounding floor; when the copies of a node
// shared by three or more ranks disagreed in the last bit (each rank folded
// its own value first), the residual stalled above it, and every step of
// these runs reported ViscousConverged=false after one or two extra passes.
func TestViscousConvergedAgreesWithSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 64-rank channel and a serial twin")
	}
	for _, c := range []struct {
		cc       flowcases.ChannelConfig
		p, steps int
	}{
		{flowcases.ChannelConfig{N: 9, KX: 5, KY: 3, Precond: ns.PrecondSchwarz}, 8, 60},
		{flowcases.ChannelConfig{N: 5, KX: 16, KY: 4}, 64, 45},
	} {
		c.cc.Re, c.cc.Alpha, c.cc.Dt, c.cc.Order, c.cc.Workers = 7500, 1, 0.003125, 2, 1
		cfg, init, _, err := flowcases.ChannelSpec(c.cc)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ns.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetVelocity(init)
		res, err := NavierStokes(cfg, NSConfig{P: c.p, Steps: c.steps, Init: init})
		if err != nil {
			t.Fatalf("P=%d: %v", c.p, err)
		}
		for i, st := range res.StepStats {
			ref, err := s.Step()
			if err != nil {
				t.Fatalf("P=%d serial step %d: %v", c.p, i+1, err)
			}
			if !st.ViscousConverged || st.HelmholtzIters != ref.HelmholtzIters {
				t.Errorf("P=%d step %d: viscous converged=%v after %v iterations; serial %v after %v",
					c.p, st.Step, st.ViscousConverged, st.HelmholtzIters, ref.ViscousConverged, ref.HelmholtzIters)
			}
		}
		s.Close()
	}
}
