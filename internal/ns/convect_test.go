package ns

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The reference-coordinate convection — contravariant advecting field, dim
// derivative products, one fused combine — equals −(c·∇)v built from the
// physical gradient of sem.GradElement, to 1e-12 of the result's size, on
// seeded random fields over every element-class mix (undeformed 2-D channel,
// partly deformed 3-D hairpin box, fully deformed O-grid).
func TestConvectMatchesPhysicalGradientForm(t *testing.T) {
	for _, tc := range eApplyCases {
		s := eApplySolver(t, tc.build(t))
		np := s.M.Np
		rng := rand.New(rand.NewSource(24))
		c, _ := velocityVecs(rng, s)
		v := normalVec(rng, s.n)

		want := make([]float64, s.n)
		var g [3][]float64
		for d := range g {
			g[d] = make([]float64, np)
		}
		scratch := make([]float64, s.D.ElemScratchLen())
		for e := 0; e < s.M.K; e++ {
			s.D.GradElement(g[0], g[1], g[2], v[e*np:(e+1)*np], e, scratch)
			for l := 0; l < np; l++ {
				i := e*np + l
				var adv float64
				for d := 0; d < s.dim; d++ {
					adv += c[d][i] * g[d][l]
				}
				want[i] = -adv
			}
		}

		s.toContravariant(c)
		got := make([]float64, s.n)
		s.convect(got, v, c)
		var diff float64
		for i := range want {
			diff = math.Max(diff, math.Abs(got[i]-want[i]))
		}
		if diff > 1e-12*maxAbs(want) {
			t.Errorf("%s: reference-coordinate convection differs from the physical-gradient form by %g (max |value| %g)",
				tc.name, diff, maxAbs(want))
		}
	}
}

// A velocity that needs more RK4 substeps than the cap fails the step, naming
// the CFL, the substeps needed and the cap, instead of integrating with a
// substep above the CFL-stable size.
func TestSubstepCapFailsTheStep(t *testing.T) {
	s, err := New(Config{Mesh: periodicBox(t, 2, 4), Re: 100, Dt: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) { return 1, 0, 0 })
	if _, err := s.Step(); err != nil {
		t.Fatalf("unit velocity: %v", err)
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) { return 1e7, 0, 0 })
	st, err := s.Step()
	if err == nil {
		t.Fatalf("step at CFL %g took %d substeps and reported no error", st.CFL, st.Substeps)
	}
	for _, want := range []string{"CFL", "substeps", "cap of 2000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if s.StepCount() != 1 {
		t.Errorf("failed step advanced the step count to %d", s.StepCount())
	}
}
