package ns

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/solver"
)

// schwarzSolver builds the case under the Schwarz preconditioner.
func schwarzSolver(t testing.TB, cfg Config) *Solver {
	t.Helper()
	cfg.PressurePrecond = PrecondSchwarz
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// CG's actual precondition: M⁻¹ is symmetric and positive in the plain
// pressure dot, with and without the vertex term, on every mix of element
// shapes (2-D undeformed and periodic, 3-D partly deformed with an open
// boundary, 2-D fully deformed), on the one-element mesh that is its own
// neighbour across every face, and at N = 3, where a neighbour's second Gauss
// point is its last.
func TestSchwarzSymmetricPositive(t *testing.T) {
	cases := append([]eApplyCase{
		{name: "self-periodic", build: func(t testing.TB) Config {
			return Config{Mesh: periodicBox(t, 1, 7), Re: 100, Dt: 0.005}
		}},
		{name: "N=3", build: func(t testing.TB) Config {
			return Config{Mesh: periodicBox(t, 2, 3), Re: 100, Dt: 0.005}
		}},
	}, eApplyCases...)
	for _, tc := range cases {
		s := schwarzSolver(t, tc.build(t))
		n := len(s.P)
		rng := rand.New(rand.NewSource(19))
		mr, ms := make([]float64, n), make([]float64, n)
		for _, coarse := range []bool{true, false} {
			for trial := 0; trial < 4; trial++ {
				r, q := normalVec(rng, n), normalVec(rng, n)
				s.sandwich(mr, r, coarse)
				s.sandwich(ms, q, coarse)
				a, b := plainDot(mr, q), plainDot(r, ms)
				scale := math.Sqrt(plainDot(mr, mr) * plainDot(q, q))
				if math.Abs(a-b) > 1e-12*scale {
					t.Errorf("%s coarse=%v: <M⁻¹r,s> = %.15g, <r,M⁻¹s> = %.15g (scale %g)", tc.name, coarse, a, b, scale)
				}
				if p := plainDot(mr, r); !(p > 0) {
					t.Errorf("%s coarse=%v: <M⁻¹r,r> = %g, want > 0", tc.name, coarse, p)
				}
			}
		}
	}
}

// randomConsistentSolve solves E x = E·(random) / ‖·‖ to 1e-8 by CG under s's
// resolved preconditioner and returns the iteration count.
func randomConsistentSolve(t testing.TB, s *Solver) int {
	t.Helper()
	n := len(s.P)
	probe := normalVec(rand.New(rand.NewSource(1)), n)
	if s.enclosed {
		s.deflatePressure(probe)
	}
	rhs, x := make([]float64, n), make([]float64, n)
	s.applyE(rhs, probe)
	inv := 1 / math.Sqrt(s.pressureDot(rhs, rhs))
	for i := range rhs {
		rhs[i] *= inv
	}
	st := solver.CG(s.applyE, s.pressureDot, x, rhs, solver.Options{Tol: 1e-8, MaxIter: 2000, Precond: s.pPrecondOp})
	if !st.Converged {
		t.Fatalf("%s: CG did not converge in %d iterations (res %g)", s.PrecondName(), st.Iterations, st.FinalRes)
	}
	return st.Iterations
}

// The iteration counts the preconditioner exists for. The velocity-grid
// composition this replaced took 1253 / >4000 / 905 iterations here against
// 283 / 206 / 241 unpreconditioned; the pressure-grid subdomains take
// 39 / 82 / 35. The gate is twice that and the unpreconditioned count: a
// regression to "slower than no preconditioner" cannot pass.
func TestSchwarzBeatsUnpreconditionedCG(t *testing.T) {
	limit := map[string]int{"channel": 80, "hairpin": 164, "ogrid": 70}
	for _, tc := range eApplyCases {
		none := randomConsistentSolve(t, eApplySolver(t, tc.build(t)))
		got := randomConsistentSolve(t, schwarzSolver(t, tc.build(t)))
		t.Logf("%s: schwarz %d iterations, unpreconditioned %d", tc.name, got, none)
		if got > limit[tc.name] || got >= none {
			t.Errorf("%s: schwarz took %d iterations, want <= %d and < unpreconditioned %d", tc.name, got, limit[tc.name], none)
		}
	}
}
