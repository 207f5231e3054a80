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

// TestNamedAppliesAlphaToEveryCase: the filter strength is a parameter every
// named case takes the same way, as it does workers and the preconditioner —
// the convection cell once dropped it and ran unfiltered whatever was asked.
func TestNamedAppliesAlphaToEveryCase(t *testing.T) {
	for _, name := range CaseNames() {
		for _, alpha := range []float64{0, 0.3, 1} {
			cfg, _, err := Named(name, CaseParams{N: 4, Nel: 2, Alpha: alpha})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cfg.FilterAlpha != alpha {
				t.Errorf("%s with alpha %g: FilterAlpha %g", name, alpha, cfg.FilterAlpha)
			}
		}
	}
}

// TestNamedCaseTable pins the problem each named case builds to the values
// the two merged switches (session.buildSolver for shared memory, semflow's
// runDistributed for -ranks) hard-coded, so the one table is checked against
// both rather than trusted.
func TestNamedCaseTable(t *testing.T) {
	p := CaseParams{N: 6, Nel: 3, Alpha: 0.3, Workers: 2, Precond: "chebjacobi"}
	type scalars struct {
		Re, Dt, Filter, PTol, VTol, SubCFL float64
		Order, ProjL, K, N, PMaxIter       int
	}
	for name, want := range map[string]scalars{
		"shearlayer": {Re: 1e5, Dt: 0.002, Filter: 0.3, PTol: 1e-7, SubCFL: 0.25, ProjL: 20, K: 9, N: 6},
		"channel":    {Re: 7500, Dt: 0.003125, Filter: 0.3, PTol: 1e-9, VTol: 1e-11, Order: 2, ProjL: 20, K: 15, N: 6},
		"convection": {Re: 1, Dt: 0.002, Filter: 0.3, PTol: 1e-8, ProjL: 20, K: 9, N: 6},
		"hairpin":    {Re: 1600, Dt: 0.05, Filter: 0.3, PTol: 1e-6, VTol: 1e-8, ProjL: 20, K: 72, N: 6},
	} {
		cfg, init, err := Named(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := scalars{Re: cfg.Re, Dt: cfg.Dt, Filter: cfg.FilterAlpha, PTol: cfg.PTol, VTol: cfg.VTol,
			SubCFL: cfg.SubCFL, Order: cfg.Order, ProjL: cfg.ProjectionL, K: cfg.Mesh.K, N: cfg.Mesh.N,
			PMaxIter: cfg.PMaxIter}
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		if cfg.Workers != 2 || cfg.PressurePrecond != "chebjacobi" {
			t.Errorf("%s: workers %d, precond %q not passed through", name, cfg.Workers, cfg.PressurePrecond)
		}
		// Only the convection cell starts at rest, with a scalar driving it.
		if rest := name == "convection"; (init == nil) != rest || (cfg.Scalar != nil) != rest {
			t.Errorf("%s: init nil %v, scalar %v", name, init == nil, cfg.Scalar != nil)
		}
	}
	if cfg, _, _ := Named("convection", p); cfg.Scalar.Buoyancy != [3]float64{0, 1e4, 0} {
		t.Errorf("convection buoyancy %v, want Ra = 1e4 upward", cfg.Scalar.Buoyancy)
	}
	// The parameters that are not defaults: mesh size, projection basis, cap.
	cfg, _, err := Named("channel", CaseParams{N: 4, KX: 8, KY: 2, ProjectionL: 5, PIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mesh.K != 16 || cfg.ProjectionL != 5 || cfg.PMaxIter != 8 {
		t.Errorf("channel 8x2 L=5 piters=8: K %d, L %d, cap %d", cfg.Mesh.K, cfg.ProjectionL, cfg.PMaxIter)
	}
	if _, _, err := Named("vortexstreet", p); err == nil {
		t.Error("unknown case accepted")
	}
	if got := CaseNames(); len(got) != 4 || got[0] != "channel" || got[3] != "shearlayer" {
		t.Errorf("CaseNames() = %v", got)
	}
}
