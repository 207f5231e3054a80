package parrun

import (
	"testing"
)

// TestDistributedPressureSolveMatchesSerial: one step holds exactly one
// pressure solve E δp = r. Distributed over P ∈ {2, 9} — the Schwarz(FDM)
// local solves on owned elements, the coarse term through the distributed
// XXT — it must reach PTol in about as many iterations as the shared-memory
// solve (the preconditioner is the same operator at every P) and produce the
// same pressure to 1e-8. P = 9 exceeds the element count, so it also covers
// the clamp: the effective count is K, the request stays observable.
func TestDistributedPressureSolveMatchesSerial(t *testing.T) {
	cfg, init := nsCase(t)
	ser := runSerial(t, cfg, init, 0)
	sst, err := ser.Step()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 9} {
		res, err := NavierStokes(cfg, NSConfig{P: p, Steps: 1, Init: init})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if want := min(p, cfg.Mesh.K); res.P != want || res.RequestedP != p {
			t.Fatalf("P=%d: effective/requested = %d/%d, want %d/%d", p, res.P, res.RequestedP, want, p)
		}
		st := res.StepStats[0]
		if !st.PressureConverged || st.PressureResFinal > cfg.PTol {
			t.Fatalf("P=%d: pressure solve stopped at residual %g after %d iterations (PTol %g)",
				p, st.PressureResFinal, st.PressureIters, cfg.PTol)
		}
		if d := st.PressureIters - sst.PressureIters; d > 10 || d < -10 {
			t.Errorf("P=%d: %d pressure iterations, serial %d", p, st.PressureIters, sst.PressureIters)
		}
		if d := maxAbsDiff(res.Pressure, ser.Pressure()); d > 1e-8 {
			t.Errorf("P=%d: pressure differs from the serial solve by %g > 1e-8", p, d)
		}
		if res.VirtualSeconds <= 0 {
			t.Errorf("P=%d: virtual completion time not modeled: %g", p, res.VirtualSeconds)
		}
	}
}
