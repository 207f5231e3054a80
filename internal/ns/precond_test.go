package ns

import (
	"math"
	"slices"
	"testing"

	"repro/internal/instrument"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// openBox is a NON-enclosed mesh: Dirichlet on the left wall only, every
// other boundary natural, so the pressure operator has no constant null
// space and diag(E) can be compared against the undeflated operator.
func openBoxConfig(t *testing.T) Config {
	t.Helper()
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 3, Ny: 2, X0: 0, X1: 1.5, Y0: 0, Y1: 1})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mesh: m, Re: 100, Dt: 0.01,
		DirichletMask: func(x, y, z float64) bool { return x < 1e-9 },
		DirichletVal: func(x, y, z, t float64) (float64, float64, float64) {
			return 1, 0, 0
		},
	}
}

// enclosedConfig is a channel-like enclosed case: Dirichlet walls, periodic
// in x, so the deflation path of every preconditioner variant runs.
func enclosedConfig(t *testing.T, precond string) Config {
	t.Helper()
	spec := mesh.Box2D(mesh.Box2DSpec{Nx: 4, Ny: 2, X0: 0, X1: 2, Y0: -1, Y1: 1, PeriodicX: true})
	m, err := mesh.Discretize(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mesh: m, Re: 500, Dt: 0.01, PTol: 1e-9, PressurePrecond: precond,
		ProjectionL:   8,
		DirichletMask: func(x, y, z float64) bool { return true },
		DirichletVal: func(x, y, z, t float64) (float64, float64, float64) {
			return 0, 0, 0
		},
		Forcing: func(x, y, z, t float64) (float64, float64, float64) {
			return 1, 0, 0
		},
	}
}

func setTestVelocity(s *Solver) {
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return (1 - y*y) + 0.05*math.Sin(math.Pi*x)*math.Sin(math.Pi*y),
			0.05 * math.Sin(2*math.Pi*x) * math.Sin(math.Pi*y), 0
	})
}

// TestPressureDiagEExact: on an open (non-enclosed, undeflated) mesh the
// element-local diagonal formula must reproduce e_iᵀ E e_i exactly.
func TestPressureDiagEExact(t *testing.T) {
	cfg := openBoxConfig(t)
	cfg.PressurePrecond = PrecondChebJacobi
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.enclosed {
		t.Fatal("open box misclassified as enclosed")
	}
	d := s.PressureDiagE()
	n := s.M.K * s.npp
	if len(d) != n {
		t.Fatalf("diag length %d, want %d", len(d), n)
	}
	ei := make([]float64, n)
	eei := make([]float64, n)
	// Every entry of a few elements, plus a stride over the rest.
	for i := 0; i < n; i += 1 + i/8 {
		for j := range ei {
			ei[j] = 0
		}
		ei[i] = 1
		s.applyE(eei, ei)
		want := eei[i]
		if math.Abs(d[i]-want) > 1e-10*(math.Abs(want)+1) {
			t.Fatalf("diag[%d] = %g, operator gives %g", i, d[i], want)
		}
	}
}

// TestPrecondVariantsConverge: every variant must converge the enclosed
// channel-like case to the same PTol, and the per-solve iteration counts
// must land in the existing pressure-iteration histogram.
func TestPrecondVariantsConverge(t *testing.T) {
	iters := map[string]int{}
	for _, name := range []string{PrecondSchwarz, PrecondChebJacobi, PrecondChebSchwarz, PrecondNone} {
		cfg := enclosedConfig(t, name)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.PrecondName(); got != name {
			t.Fatalf("resolved %q, want %q", got, name)
		}
		reg := instrument.New()
		s.AttachMetrics(reg)
		setTestVelocity(s)
		total := 0
		for i := 0; i < 3; i++ {
			st, err := s.Step()
			if err != nil {
				t.Fatalf("%s step %d: %v", name, i+1, err)
			}
			if !st.PressureConverged {
				t.Fatalf("%s step %d: pressure solve did not converge (%d iters, res %g)",
					name, i+1, st.PressureIters, st.PressureResFinal)
			}
			total += st.PressureIters
		}
		iters[name] = total
		if n := reg.Histogram("solver/pressure.iters.hist").Stat().Count; n != 3 {
			t.Errorf("%s: pressure iteration histogram has %d observations, want 3", name, n)
		}
		s.Close()
	}
	// On this tiny well-conditioned mesh the Schwarz sandwich's iteration
	// count can exceed unpreconditioned CG (a pre-existing property of the
	// reference path, verified against the seed), so only the Chebyshev-
	// Jacobi variant — whose bounds are tuned to this operator — is held to
	// a strict improvement here.
	if iters[PrecondChebJacobi] >= iters[PrecondNone] {
		t.Errorf("chebjacobi took %d iterations over 3 steps, no better than unpreconditioned %d",
			iters[PrecondChebJacobi], iters[PrecondNone])
	}
	t.Logf("pressure iterations over 3 steps: %v", iters)
}

// TestPrecondAutoTrialThenTable: with a clean table, "auto" must run the
// trial tournament (source "trial") over schwarz, then chebschwarz, building
// neither diag(E) nor Jacobi bounds, record the winner, and a second
// identical solver must hit the installed table (source "table") with the
// same variant and no trials.
func TestPrecondAutoTrialThenTable(t *testing.T) {
	solver.ResetPrecondTable()
	defer solver.ResetPrecondTable()
	cfg := enclosedConfig(t, PrecondAuto)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	sel1 := s1.PrecondSelection()
	if sel1.Source != "trial" {
		t.Fatalf("first auto selection source = %q, want trial", sel1.Source)
	}
	checkAutoEntrants(t, s1)
	if !ValidPrecond(sel1.Name) || sel1.Name == PrecondAuto || sel1.Name == PrecondNone {
		t.Fatalf("auto selected %q", sel1.Name)
	}
	// The winner must not charge more work than the schwarz reference trial.
	var ref, won *solver.PrecondTrial
	for i := range sel1.Trials {
		if sel1.Trials[i].Name == PrecondSchwarz {
			ref = &sel1.Trials[i]
		}
		if sel1.Trials[i].Name == sel1.Name {
			won = &sel1.Trials[i]
		}
	}
	if ref == nil || won == nil {
		t.Fatalf("trials missing reference or winner: %+v", sel1.Trials)
	}
	if !won.Converged || won.Flops <= 0 || won.Flops > ref.Flops {
		t.Errorf("winner %q (%d flops, conv %v) worse than schwarz reference (%d flops)",
			sel1.Name, won.Flops, won.Converged, ref.Flops)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sel2 := s2.PrecondSelection()
	if sel2.Source != "table" || sel2.Name != sel1.Name || len(sel2.Trials) != 0 {
		t.Fatalf("second auto selection = %+v, want table hit on %q", sel2, sel1.Name)
	}

	// The auto-resolved solver must step and converge like any forced one.
	setTestVelocity(s2)
	st, err := s2.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !st.PressureConverged {
		t.Fatalf("auto-selected %q did not converge the first step", sel2.Name)
	}
}

// TestPrecondTableHitBuildsOnlyRecorded: an "auto" solver whose key the
// table holds builds and tunes the recorded variant alone — no other
// variant's Chebyshev bounds, no diag(E) or Schwarz factors it does not
// apply — and steps bitwise like a solver with that variant forced.
func TestPrecondTableHitBuildsOnlyRecorded(t *testing.T) {
	defer solver.ResetPrecondTable()
	for _, name := range PrecondNames() {
		forced, err := New(enclosedConfig(t, name))
		if err != nil {
			t.Fatal(err)
		}
		solver.ResetPrecondTable()
		solver.RecordPrecond(forced.precondKey(), name)
		hit, err := New(enclosedConfig(t, PrecondAuto))
		if err != nil {
			t.Fatal(err)
		}
		if sel := hit.PrecondSelection(); sel.Source != "table" || sel.Name != name || len(sel.Trials) != 0 {
			t.Fatalf("selection = %+v, want a table hit on %q", sel, name)
		}
		for _, other := range []string{PrecondChebJacobi, PrecondChebSchwarz} {
			if _, _, _, ok := hit.ChebBounds(other); ok != (other == name) {
				t.Errorf("%s recorded: ChebBounds(%s) ok = %v", name, other, ok)
			}
		}
		if (hit.PressureDiagE() != nil) != (name == PrecondChebJacobi) {
			t.Errorf("%s recorded: diag(E) built = %v", name, hit.PressureDiagE() != nil)
		}
		if (hit.pSchwarz != nil) != (name != PrecondChebJacobi) {
			t.Errorf("%s recorded: Schwarz built = %v", name, hit.pSchwarz != nil)
		}
		for _, s := range []*Solver{forced, hit} {
			setTestVelocity(s)
			for i := 0; i < 10; i++ {
				if _, err := s.Step(); err != nil {
					t.Fatalf("%s step %d: %v", name, i+1, err)
				}
			}
		}
		for c := 0; c < 2; c++ {
			for i, v := range forced.U[c] {
				if hit.U[c][i] != v {
					t.Fatalf("%s: velocity %d differs at %d after 10 steps: %v vs forced %v", name, c, i, hit.U[c][i], v)
				}
			}
		}
		for i, v := range forced.P {
			if hit.P[i] != v {
				t.Fatalf("%s: pressure differs at %d after 10 steps: %v vs forced %v", name, i, hit.P[i], v)
			}
		}
		forced.Close()
		hit.Close()
	}
}

// TestPrecondSelectionSources: forced and default resolutions must be
// reported as such, and an unknown name must be rejected at New.
func TestPrecondSelectionSources(t *testing.T) {
	cfg := enclosedConfig(t, PrecondChebSchwarz)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel := s.PrecondSelection(); sel.Source != "forced" || sel.Name != PrecondChebSchwarz {
		t.Errorf("forced selection = %+v", sel)
	}
	s.Close()

	cfg.PressurePrecond = ""
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel := s.PrecondSelection(); sel.Source != "default" || sel.Name != PrecondSchwarz {
		t.Errorf("default selection = %+v", sel)
	}
	if _, _, _, ok := s.ChebBounds(PrecondChebJacobi); ok {
		t.Error("default schwarz build reports chebjacobi bounds")
	}
	s.Close()

	cfg.PressurePrecond = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an unknown preconditioner name")
	}
}

// TestPrecondDegenerateOneElement: a degenerate 1-element fully periodic
// mesh (element-local nodes self-share global nodes, diag(E) only a bound,
// the element its own Schwarz neighbour across every face) must still build
// every variant and converge its pressure solves.
func TestPrecondDegenerateOneElement(t *testing.T) {
	for _, name := range []string{PrecondSchwarz, PrecondChebJacobi, PrecondChebSchwarz} {
		m := periodicBox(t, 1, 7)
		s, err := New(Config{Mesh: m, Re: 100, Dt: 0.005, PTol: 1e-8, PressurePrecond: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, lmax, _, ok := s.ChebBounds(name)
		if name != PrecondSchwarz && (!ok || !(lmax > 0) || math.IsNaN(lmax)) {
			t.Fatalf("%s: bad bounds on degenerate mesh: %v %v", name, lmax, ok)
		}
		s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
			return math.Sin(2 * math.Pi * y), math.Sin(2 * math.Pi * x), 0
		})
		for i := 0; i < 2; i++ {
			st, err := s.Step()
			if err != nil {
				t.Fatalf("%s step: %v", name, err)
			}
			if !st.PressureConverged {
				t.Fatalf("%s: degenerate-mesh pressure solve did not converge", name)
			}
		}
		s.Close()
	}
}

// TestChebBoundsUniform: bounds come from deterministic probes, so two
// identical builds must agree bitwise — the property parrun relies on when
// every rank reads the template's coefficients.
func TestChebBoundsUniform(t *testing.T) {
	cfg := enclosedConfig(t, PrecondChebJacobi)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	min1, max1, d1, _ := s1.ChebBounds(PrecondChebJacobi)
	min2, max2, d2, _ := s2.ChebBounds(PrecondChebJacobi)
	if min1 != min2 || max1 != max2 || d1 != d2 {
		t.Fatalf("bounds differ between identical builds: (%g,%g,%d) vs (%g,%g,%d)",
			min1, max1, d1, min2, max2, d2)
	}
}

// TestPrecondAutoCutsHairpinLosers: on the hairpin box of the benchmark
// (K = 72, N = 5, Re 850, the case's pressure tolerance) "auto" picks
// schwarz on its full trial, 59 iterations and 222 666 956 flops, and stops
// the chebschwarz trial once it has charged that much without converging.
func TestPrecondAutoCutsHairpinLosers(t *testing.T) {
	solver.ResetPrecondTable()
	defer solver.ResetPrecondTable()
	cfg := eApplyCases[1].build(t)
	cfg.PTol, cfg.PressurePrecond = 1e-6, PrecondAuto
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sel := s.PrecondSelection()
	if sel.Source != "trial" || sel.Name != PrecondSchwarz {
		t.Fatalf("selection = %+v, want a schwarz win on a trial", sel)
	}
	checkAutoEntrants(t, s)
	won := sel.Trials[0]
	if won.Name != PrecondSchwarz || !won.Converged || won.Cut || won.Iterations != 59 || won.Flops != 222666956 {
		t.Fatalf("schwarz trial = %+v, want converged in 59 iterations on 222666956 flops", won)
	}
	for _, tr := range sel.Trials[1:] {
		if !tr.Cut || tr.Converged || tr.Flops < won.Flops {
			t.Errorf("trial %+v, want cut unconverged at %d flops or more", tr, won.Flops)
		}
	}
	t.Logf("trials %+v", sel.Trials)
}

// checkAutoEntrants: an "auto" solver that ran its tournament trialled
// schwarz, then chebschwarz, and nothing else, and so built no diag(E) and
// tuned no Jacobi Chebyshev bounds.
func checkAutoEntrants(t *testing.T, s *Solver) {
	t.Helper()
	trials := s.PrecondSelection().Trials
	var names []string
	for _, tr := range trials {
		names = append(names, tr.Name)
	}
	if want := []string{PrecondSchwarz, PrecondChebSchwarz}; !slices.Equal(names, want) {
		t.Fatalf("auto trialled %v, want %v in that order", names, want)
	}
	if s.PressureDiagE() != nil {
		t.Error("auto built diag(E), which only chebjacobi applies")
	}
	if _, _, _, ok := s.ChebBounds(PrecondChebJacobi); ok {
		t.Error("auto tuned chebjacobi bounds")
	}
}
