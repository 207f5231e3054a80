package flowcases

import (
	"math"
	"testing"
)

func TestShearLayerFilterStabilizes(t *testing.T) {
	// Fig. 3 in miniature: at Re=1e5 with marginal resolution the
	// unfiltered scheme blows up while α=0.3 filtering survives the
	// roll-up window.
	if testing.Short() {
		t.Skip("multi-minute shear-layer run; skipped under -short (race tier)")
	}
	run := func(alpha float64, steps int) (blewUp bool, finalKE float64) {
		s, err := ShearLayer(ShearLayerConfig{
			Nel: 8, N: 8, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: alpha,
		})
		if err != nil {
			t.Fatal(err)
		}
		ke0 := KineticEnergy(s)
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				return true, math.Inf(1)
			}
			ke := KineticEnergy(s)
			if math.IsNaN(ke) || ke > 10*ke0 {
				return true, ke
			}
		}
		return false, KineticEnergy(s)
	}
	blewFiltered, keF := run(0.3, 250)
	if blewFiltered {
		t.Fatalf("filtered shear layer blew up (KE %g)", keF)
	}
	blewRaw, _ := run(0, 250)
	if !blewRaw {
		t.Log("unfiltered case survived 250 steps (blowup expected later at this resolution)")
	}
	// Energy must not grow for the filtered case (dissipative flow).
	s, err := ShearLayer(ShearLayerConfig{Nel: 8, N: 8, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ke0 := KineticEnergy(s)
	for i := 0; i < 50; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if ke := KineticEnergy(s); ke > ke0*1.001 {
		t.Errorf("filtered shear layer gained energy: %g -> %g", ke0, ke)
	}
}

func TestShearLayerVorticityRange(t *testing.T) {
	// The initial tanh layer with rho=30 has peak vorticity ~rho.
	s, err := ShearLayer(ShearLayerConfig{Nel: 8, N: 8, Rho: 30, Re: 1e5, Dt: 0.002, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := FieldRange(Vorticity(s))
	if hi < 25 || hi > 35 || lo > -25 {
		t.Errorf("initial vorticity range [%g, %g], want ≈ ±30", lo, hi)
	}
}

func TestChannelGrowthRateMatchesLinearTheory(t *testing.T) {
	// Table 1 in miniature: the measured TS growth rate converges to the
	// Orr–Sommerfeld value as N increases.
	rate := func(n int) (measured, reference float64) {
		s, osr, err := Channel(ChannelConfig{
			Re: 7500, Alpha: 1, N: n, Dt: 0.003125, Order: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := MeasuredGrowthRate(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return g, osr.GrowthRate()
	}
	g9, ref := rate(9)
	err9 := math.Abs(g9-ref) / math.Abs(ref)
	t.Logf("N=9: measured %g vs OS %g (rel err %g)", g9, ref, err9)
	if err9 > 0.05 {
		t.Errorf("N=9 growth-rate error %g too large", err9)
	}
	g7, _ := rate(7)
	err7 := math.Abs(g7-ref) / math.Abs(ref)
	t.Logf("N=7: rel err %g", err7)
	if err9 > err7 && err7 > 0.01 {
		t.Errorf("error did not shrink with N: N7 %g N9 %g", err7, err9)
	}
}

func TestConvectionCellDevelops(t *testing.T) {
	s, err := Convection(ConvectionConfig{Nel: 4, N: 5, Ra: 5e3, Dt: 0.005, ProjectionL: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if KineticEnergy(s) <= 0 {
		t.Error("convection cell has no motion")
	}
	// Temperature must stay within the wall values [0, 1] modulo small
	// over/undershoots.
	lo, hi := FieldRange(s.Scalar())
	if lo < -0.2 || hi > 1.2 {
		t.Errorf("temperature field out of bounds: [%g, %g]", lo, hi)
	}
}

func TestHairpinBoxRuns(t *testing.T) {
	s, err := Hairpin(HairpinConfig{
		Nx: 4, Ny: 3, Nz: 3, N: 5, Re: 850, Dt: 0.02, Workers: 2, FilterA: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var prevIters int
	for i := 0; i < 3; i++ {
		st, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.PressureIters <= 0 {
			t.Error("pressure solve did no iterations on an impulsive start")
		}
		prevIters = st.PressureIters
	}
	_ = prevIters
	// Velocity bounded by ~free stream.
	lo, hi := FieldRange(s.Velocity(0))
	if hi > 2 || lo < -2 {
		t.Errorf("streamwise velocity out of bounds: [%g, %g]", lo, hi)
	}
	// Flow must decelerate near the bump wall and stay ≈ free-stream at top.
	if KineticEnergy(s) <= 0 {
		t.Error("no kinetic energy")
	}
}
