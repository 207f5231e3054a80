package ns

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

func periodicBox(t testing.TB, nel, n int) *mesh.Mesh {
	t.Helper()
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: nel, Ny: nel, X0: 0, X1: 1, Y0: 0, Y1: 1,
		PeriodicX: true, PeriodicY: true})
	m, err := mesh.Discretize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEOperatorSymmetricPSD(t *testing.T) {
	m := periodicBox(t, 3, 5)
	s, err := New(Config{Mesh: m, Re: 100, Dt: 0.01, PressurePrecond: "none"})
	if err != nil {
		t.Fatal(err)
	}
	np := m.K * s.npp
	rng := rand.New(rand.NewSource(1))
	p := make([]float64, np)
	q := make([]float64, np)
	for i := range p {
		p[i] = rng.NormFloat64()
		q[i] = rng.NormFloat64()
	}
	ep := make([]float64, np)
	eq := make([]float64, np)
	s.applyE(ep, p)
	s.applyE(eq, q)
	lhs := s.pressureDot(ep, q)
	rhs := s.pressureDot(p, eq)
	if math.Abs(lhs-rhs) > 1e-8*(math.Abs(lhs)+1) {
		t.Errorf("E not symmetric: %g vs %g", lhs, rhs)
	}
	if pep := s.pressureDot(ep, p); pep < -1e-10 {
		t.Errorf("E not PSD: pᵀEp = %g", pep)
	}
	// Constants are in the null space (after deflation the image of a
	// constant is 0).
	c := make([]float64, np)
	for i := range c {
		c[i] = 3.7
	}
	ec := make([]float64, np)
	s.applyE(ec, c)
	if nrm := math.Sqrt(s.pressureDot(ec, ec)); nrm > 1e-8 {
		t.Errorf("E of constant pressure not ~0: %g", nrm)
	}
}

func TestPoiseuilleSteadyState(t *testing.T) {
	// Plane Poiseuille flow: periodic in x, no-slip walls, constant body
	// force. u = 4y(1-y) is a steady solution when fx = 8/Re. Starting
	// from the exact profile, the solution must stay put through the full
	// splitting (catches sign errors in D, Dᵀ and the correction step).
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 3, Ny: 3, X0: 0, X1: 2, Y0: 0, Y1: 1, PeriodicX: true})
	m, err := mesh.Discretize(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	re := 50.0
	s, err := New(Config{
		Mesh: m, Re: re, Dt: 0.02,
		DirichletMask: func(x, y, z float64) bool { return true }, // walls (only boundary left)
		DirichletVal:  func(x, y, z, t float64) (float64, float64, float64) { return 0, 0, 0 },
		Forcing: func(x, y, z, t float64) (float64, float64, float64) {
			return 8 / re, 0, 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return 4 * y * (1 - y), 0, 0
	})
	for i := 0; i < 5; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var maxErr float64
	for i := 0; i < s.n; i++ {
		exact := 4 * m.Y[i] * (1 - m.Y[i])
		if e := math.Abs(s.U[0][i] - exact); e > maxErr {
			maxErr = e
		}
		if e := math.Abs(s.U[1][i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-5 {
		t.Errorf("Poiseuille drifted from steady state by %g", maxErr)
	}
	if dn := s.DivergenceNorm(); dn > 1e-6 {
		t.Errorf("divergence norm %g", dn)
	}
}

// taylorGreen returns the decaying vortex solution on the unit periodic box.
func taylorGreen(re float64) func(x, y, t float64) (u, v float64) {
	k := 2 * math.Pi
	return func(x, y, t float64) (float64, float64) {
		f := math.Exp(-2 * k * k * t / re)
		return math.Sin(k*x) * math.Cos(k*y) * f, -math.Cos(k*x) * math.Sin(k*y) * f
	}
}

func runTaylorGreen(t *testing.T, nel, n int, dt float64, steps, order int, alpha float64) float64 {
	t.Helper()
	m := periodicBox(t, nel, n)
	re := 100.0
	s, err := New(Config{Mesh: m, Re: re, Dt: dt, Order: order, FilterAlpha: alpha,
		ProjectionL: 8, PTol: 1e-10, VTol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	tg := taylorGreen(re)
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		u, v := tg(x, y, 0)
		return u, v, 0
	})
	for i := 0; i < steps; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var maxErr float64
	tEnd := s.Time()
	for i := 0; i < s.n; i++ {
		ue, ve := tg(m.X[i], m.Y[i], tEnd)
		if e := math.Abs(s.U[0][i] - ue); e > maxErr {
			maxErr = e
		}
		if e := math.Abs(s.U[1][i] - ve); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestTaylorGreenAccuracy(t *testing.T) {
	err := runTaylorGreen(t, 3, 9, 0.005, 20, 2, 0)
	t.Logf("Taylor-Green error after 20 steps: %g", err)
	if err > 5e-4 {
		t.Errorf("Taylor-Green error %g too large", err)
	}
}

func TestTaylorGreenTemporalConvergence(t *testing.T) {
	// Halving Δt with BDF2 should cut the error by about 4 (the splitting
	// is second order).
	e1 := runTaylorGreen(t, 3, 8, 0.02, 10, 2, 0)
	e2 := runTaylorGreen(t, 3, 8, 0.01, 20, 2, 0)
	ratio := e1 / e2
	t.Logf("BDF2 error ratio for dt halving: %g (e1=%g e2=%g)", ratio, e1, e2)
	if ratio < 2.5 {
		t.Errorf("not second order: ratio %g", ratio)
	}
}

func TestStepDivergenceFree(t *testing.T) {
	m := periodicBox(t, 3, 6)
	s, err := New(Config{Mesh: m, Re: 500, Dt: 0.01, PTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(2 * math.Pi * y), 0.05 * math.Sin(2*math.Pi*x), 0
	})
	for i := 0; i < 3; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if dn := s.DivergenceNorm(); dn > 1e-7 {
		t.Errorf("velocity not (discretely) divergence free: %g", dn)
	}
}

func TestProjectionReducesPressureIterations(t *testing.T) {
	run := func(l int) (first, late int) {
		m := periodicBox(t, 3, 6)
		s, err := New(Config{Mesh: m, Re: 1000, Dt: 0.01, ProjectionL: l, PTol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
			return math.Tanh(30*(y-0.25)) * boxcar(y), 0.05 * math.Sin(2*math.Pi*x), 0
		})
		var stats []StepStats
		for i := 0; i < 10; i++ {
			st, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
		return stats[0].PressureIters, stats[len(stats)-1].PressureIters
	}
	_, lateOff := run(0)
	_, lateOn := run(12)
	t.Logf("late-step pressure iterations: L=0 %d, L=12 %d", lateOff, lateOn)
	if lateOn >= lateOff {
		t.Errorf("projection did not reduce pressure iterations: %d vs %d", lateOn, lateOff)
	}
}

func boxcar(y float64) float64 {
	if y > 0.5 {
		return -1
	}
	return 1
}

func TestConfigValidation(t *testing.T) {
	m := periodicBox(t, 2, 4)
	if _, err := New(Config{Mesh: nil, Re: 1, Dt: 1}); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := New(Config{Mesh: m, Re: 0, Dt: 1}); err == nil {
		t.Error("Re=0 accepted")
	}
	if _, err := New(Config{Mesh: m, Re: 1, Dt: 0}); err == nil {
		t.Error("Dt=0 accepted")
	}
	if _, err := New(Config{Mesh: m, Re: 1, Dt: 1, Order: 7}); err == nil {
		t.Error("order 7 accepted")
	}
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 2, Ny: 2, X1: 1, Y1: 1})
	m2, err := mesh.Discretize(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Mesh: m2, Re: 1, Dt: 1}); err == nil {
		t.Error("N=2 accepted for P_N-P_{N-2}")
	}
}

func TestBuoyantScalarRises(t *testing.T) {
	// Hot blob in a closed box with upward buoyancy: vertical velocity
	// above the blob must become positive.
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 3, Ny: 3, X1: 1, Y1: 1})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Mesh: m, Re: 100, Dt: 0.005,
		DirichletMask: func(x, y, z float64) bool { return true },
		DirichletVal:  func(x, y, z, t float64) (float64, float64, float64) { return 0, 0, 0 },
		Scalar: &ScalarConfig{
			Diffusivity: 0.01,
			Buoyancy:    [3]float64{0, 1, 0},
			Initial: func(x, y, z float64) float64 {
				dx, dy := x-0.5, y-0.35
				return math.Exp(-50 * (dx*dx + dy*dy))
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Probe v near the blob center.
	var vMax float64
	for i := 0; i < s.n; i++ {
		if math.Abs(m.X[i]-0.5) < 0.15 && m.Y[i] > 0.35 && m.Y[i] < 0.7 {
			if s.U[1][i] > vMax {
				vMax = s.U[1][i]
			}
		}
	}
	if vMax <= 0 {
		t.Errorf("buoyant plume did not rise: vMax=%g", vMax)
	}
	if s.Scalar() == nil {
		t.Error("scalar field missing")
	}
}
