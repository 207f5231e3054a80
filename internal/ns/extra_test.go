package ns

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

func TestBDF3TaylorGreen(t *testing.T) {
	// Third-order splitting must track the decaying vortex at least as well
	// as BDF2 at the same step size.
	e2 := runTaylorGreen(t, 3, 9, 0.01, 15, 2, 0)
	e3 := runTaylorGreen(t, 3, 9, 0.01, 15, 3, 0)
	t.Logf("BDF2 err %g, BDF3 err %g", e2, e3)
	if e3 > 2*e2 {
		t.Errorf("BDF3 (%g) should not be much worse than BDF2 (%g)", e3, e2)
	}
}

func TestTimeDependentDirichlet(t *testing.T) {
	// Lid-driven cavity with a smoothly ramped lid: the boundary velocity
	// must follow the prescribed ramp exactly, and the interior must start
	// moving.
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 3, Ny: 3, X1: 1, Y1: 1})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	lid := func(tt float64) float64 { return math.Min(tt/0.05, 1) }
	s, err := New(Config{
		Mesh: m, Re: 100, Dt: 0.01,
		DirichletMask: func(x, y, z float64) bool { return true },
		DirichletVal: func(x, y, z, tt float64) (float64, float64, float64) {
			if y > 1-1e-12 && x > 1e-12 && x < 1-1e-12 {
				return lid(tt), 0, 0
			}
			return 0, 0, 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := lid(s.Time())
	foundLid := false
	for i := 0; i < s.n; i++ {
		if m.Y[i] > 1-1e-12 && m.X[i] > 0.2 && m.X[i] < 0.8 {
			foundLid = true
			if math.Abs(s.U[0][i]-want) > 1e-12 {
				t.Fatalf("lid velocity %g, want %g", s.U[0][i], want)
			}
		}
	}
	if !foundLid {
		t.Fatal("no lid nodes probed")
	}
	// Interior motion below the lid.
	var umax float64
	for i := 0; i < s.n; i++ {
		if m.Y[i] > 0.6 && m.Y[i] < 0.95 {
			umax = math.Max(umax, math.Abs(s.U[0][i]))
		}
	}
	if umax < 1e-4 {
		t.Errorf("cavity interior not dragged by the lid: %g", umax)
	}
}

func TestStatsFields(t *testing.T) {
	m := periodicBox(t, 2, 5)
	s, err := New(Config{Mesh: m, Re: 100, Dt: 0.01, ProjectionL: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(2 * math.Pi * y), 0, 0
	})
	st, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 1 || st.Time != 0.01 {
		t.Errorf("step bookkeeping wrong: %+v", st)
	}
	if st.Substeps < 1 {
		t.Error("no substeps recorded")
	}
	if st.CFL <= 0 {
		t.Error("CFL not recorded")
	}
	if s.StepCount() != 1 {
		t.Error("StepCount wrong")
	}
}

func TestSkewWeightOptionRuns(t *testing.T) {
	m := periodicBox(t, 2, 6)
	s, err := New(Config{Mesh: m, Re: 500, Dt: 0.005, SkewWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return math.Sin(2 * math.Pi * y), 0.01 * math.Sin(2*math.Pi*x), 0
	})
	for i := 0; i < 3; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if dn := s.DivergenceNorm(); dn > 1e-6 {
		t.Errorf("skew-form run not divergence free: %g", dn)
	}
}
